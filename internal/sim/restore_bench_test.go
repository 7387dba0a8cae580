package sim

import "testing"

// Benchmarks of the snapshot economics at the paper's h=6 scale (73
// groups, 876 routers): cold construction vs a fresh restore vs the sweep
// steady state of restoring over a recycled network. They isolate the
// three costs for profiling and are advisory: a restore over a recycled
// network should beat a cold build about fivefold, but the ratio of two
// millisecond-scale readings on a shared machine misses any such floor
// now and then with nothing wrong, so no test gates it.

func BenchmarkBuildH6(b *testing.B) {
	cfg := engineAt(6, 0.1, 1, 100).full()
	for i := 0; i < b.N; i++ {
		if _, err := NewNetwork(&cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestoreH6(b *testing.B) {
	cfg := engineAt(6, 0.1, 1, 100).full()
	snap, err := NewSnapshot(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreNetwork(snap, &cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestoreIntoH6(b *testing.B) {
	cfg := engineAt(6, 0.1, 1, 100).full()
	snap, err := NewSnapshot(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	net, err := RestoreNetwork(snap, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net, err = RestoreNetworkInto(snap, &cfg, net); err != nil {
			b.Fatal(err)
		}
	}
}
