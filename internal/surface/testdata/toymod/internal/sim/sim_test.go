package sim

import (
	"testing"

	"toy/internal/lib"
)

func TestStamp(t *testing.T) {
	if Stamp() == 0 || lib.TestOnly() != 3 {
		t.Fatal("toy")
	}
}

func FuzzStamp(f *testing.F) { f.Fuzz(func(*testing.T, int) {}) }
