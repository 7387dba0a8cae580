package traffic

import (
	"testing"

	"dragonfly/internal/rng"
)

func TestTornadoOffset(t *testing.T) {
	tp := newTopo() // 9 groups
	tor := newTornado(tp)
	r := rng.New(21)
	for src := 0; src < tp.NumNodes(); src += 9 {
		d := tor.Dest(src, r)
		if off := groupOffset(tp, src, d); off != 4 {
			t.Fatalf("tornado offset %d, want G/2 = 4", off)
		}
	}
}

func TestBitReverse(t *testing.T) {
	tp := newTopo()
	br := newBitReverse(tp)
	r := rng.New(22)
	for src := 0; src < tp.NumNodes(); src++ {
		d := br.Dest(src, r)
		if d == src {
			t.Fatalf("bit-reverse fixed point at %d", src)
		}
		if d < 0 || d >= tp.NumNodes() {
			t.Fatalf("bit-reverse out of range: %d -> %d", src, d)
		}
		// Deterministic.
		if d2 := br.Dest(src, r); d2 != d {
			t.Fatalf("bit-reverse not deterministic at %d", src)
		}
	}
	if br.Name() != "BITREV" {
		t.Error("name wrong")
	}
}

func TestGroupShuffle(t *testing.T) {
	tp := newTopo()
	s := newGroupShuffle(tp)
	r := rng.New(23)
	for src := 0; src < tp.NumNodes(); src += 5 {
		d := s.Dest(src, r)
		g := tp.NodeGroup(src)
		want := (2*g + 1) % tp.NumGroups()
		if want == g {
			want = (want + 1) % tp.NumGroups()
		}
		if tp.NodeGroup(d) != want {
			t.Fatalf("shuffle: group %d -> %d, want %d", g, tp.NodeGroup(d), want)
		}
		if d == src {
			t.Fatal("shuffle returned source")
		}
	}
}

func TestByNameExtraPatterns(t *testing.T) {
	tp := newTopo()
	r := rng.New(25)
	for name, want := range map[string]string{
		"TORNADO": "ADV+4",
		"BITREV":  "BITREV",
		"SHUFFLE": "SHUFFLE",
	} {
		p, err := ByName(tp, name, r)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
}
