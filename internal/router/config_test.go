package router

import (
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.LocalVCs = 0 },
		func(c *Config) { c.GlobalVCs = 257 },
		func(c *Config) { c.GlobalVCs = 0 },
		func(c *Config) { c.InjectionQueuePackets = 0 },
		func(c *Config) { c.CongestionThreshold = 0 },
		func(c *Config) { c.CongestionThreshold = 1 },
		// Values past what the core stores them in.
		func(c *Config) { c.InjectionQueuePackets = 1 << 31 },
		func(c *Config) { c.InjectionQueuePackets = 1 << 28 }, // × 8 phits
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// The largest values that do fit are accepted.
	edges := []func(*Config){
		func(c *Config) { c.InjectionQueuePackets = math.MaxInt32 / c.PacketSize },
	}
	for i, edge := range edges {
		c := DefaultConfig()
		edge(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("edge %d refused: %v", i, err)
		}
	}
}

func TestConfigDerivedCycles(t *testing.T) {
	c := DefaultConfig()
	if got := c.CrossbarCycles(); got != 4 {
		t.Errorf("CrossbarCycles() = %d, want 4 (8 phits at 2x)", got)
	}
	if got := c.SerialCycles(); got != 8 {
		t.Errorf("SerialCycles() = %d, want 8", got)
	}
}

func TestArbitrationString(t *testing.T) {
	for a, want := range map[Arbitration]string{
		RoundRobin:           "round-robin",
		TransitOverInjection: "transit-priority",
		AgeBased:             "age",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Arbitration(9).String() == "" {
		t.Error("unknown arbitration String() empty")
	}
}
