package sim

import "dragonfly/internal/workload"

// impl is one implementation of the simulator as the cross-implementation
// tests see it: how to build a network and how to drive it. Tests pick a
// pair instead of driving one network through either engine — production
// and oracle networks are different objects now.
type impl struct {
	name  string
	build func(cfg *Config, wl *workload.Workload) (*Network, error)
	drive func(net *Network, cfg *Config, ctrl Controller) error
}

// core is production: router.Core stepped by the scheduler engines
// (sequential or barrier-parallel by cfg.Workers).
var core = impl{"core", NewNetwork, RunNetworkWithController}

// OracleBuild and OracleDrive are internal/refmodel's constructor and dense
// engines. refmodel imports this package, so the in-package tests cannot
// import it back: refmodel_test.go (package sim_test, same test binary)
// fills these in from its init.
var (
	OracleBuild func(cfg *Config, wl *workload.Workload) (*Network, error)
	OracleDrive func(net *Network, cfg *Config, ctrl Controller) error
)

// oracle is the dense seed model (closures, because refmodel_test.go's init
// fills the two variables in after this initializer has run).
var oracle = impl{"oracle",
	func(cfg *Config, wl *workload.Workload) (*Network, error) { return OracleBuild(cfg, wl) },
	func(net *Network, cfg *Config, ctrl Controller) error { return OracleDrive(net, cfg, ctrl) }}
