package sim_test

import (
	"dragonfly/internal/refmodel"
	"dragonfly/internal/sim"
)

// Wire the oracle into the in-package tests (see impl_test.go).
func init() {
	sim.OracleBuild = refmodel.NewNetwork
	sim.OracleDrive = refmodel.RunWithController
}
