package sweep

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// RestoreOrRun restores what the checkpoint holds, runs the rest in slot
// order, and reports — but survives — a checkpoint that stops storing.
func TestRestoreOrRun(t *testing.T) {
	slots := make([]Slot, 4)
	for i := range slots {
		slots[i] = Slot{Task: "t", Point: Point{Mechanism: "MIN", Pattern: "UN", Load: 0.1, Seed: uint64(i)}}
	}
	body := func(i int) Record {
		return Record{Task: "t", Point: slots[i].Point, Throughput: float64(i)}
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, "meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Put(body(2)); err != nil {
		t.Fatal(err)
	}

	var ran, restored []int
	recs, filled, err := RestoreOrRun(context.Background(), ck, slots, 1,
		func(i int) Record { ran = append(ran, i); return body(i) }, // one at a time: no race
		func(i int, rec *Record, wasRestored bool) {
			if wasRestored {
				restored = append(restored, i)
			}
			if rec.Throughput != float64(i) {
				t.Errorf("slot %d noted with record %+v", i, rec)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != 2 || len(ran) != 3 || ran[0] != 0 || ran[1] != 1 || ran[2] != 3 {
		t.Fatalf("restored %v, ran %v; want [2] and [0 1 3]", restored, ran)
	}
	for i, rec := range recs {
		if !filled[i] || rec.Throughput != float64(i) {
			t.Fatalf("slot %d: filled %v, record %+v", i, filled[i], rec)
		}
	}
	if ck.Len() != 4 {
		t.Fatalf("checkpoint holds %d records, want 4", ck.Len())
	}

	// The file goes away under the checkpoint: every point still runs, and
	// the first storage error comes back once they have.
	ck2, err := OpenCheckpoint(filepath.Join(t.TempDir(), "ck2.jsonl"), "meta")
	if err != nil {
		t.Fatal(err)
	}
	ck2.f.Close()
	_, filled, err = RestoreOrRun(context.Background(), ck2, slots, 0, body, nil)
	if err == nil || !strings.Contains(err.Error(), "checkpointing failed") {
		t.Fatalf("storage failure reported as %v", err)
	}
	for i, ok := range filled {
		if !ok {
			t.Fatalf("slot %d did not run after the storage failure", i)
		}
	}
}
