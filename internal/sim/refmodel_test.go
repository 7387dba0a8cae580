package sim_test

import (
	"dragonfly/internal/refmodel"
	"dragonfly/internal/sim"
	"dragonfly/internal/traffic"
)

// Wire the oracle into the in-package tests (see impl_test.go).
func init() {
	sim.OracleBuild = func(cfg *sim.Config, pat traffic.Pattern, eventLinks bool) (*sim.Network, error) {
		kind := refmodel.Rings
		if eventLinks {
			kind = refmodel.Events
		}
		return refmodel.NewNetwork(cfg, pat, kind)
	}
	sim.OracleDrive = refmodel.RunWithController
}
