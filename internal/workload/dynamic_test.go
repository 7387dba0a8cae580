package workload

import (
	"testing"

	"dragonfly/internal/topology"
)

// A streaming workload's job index keeps the jobs admitted since the oldest
// one not yet retired, not every job of the trace: over 10,000 jobs, at
// most four admitted at once and retired out of order, indices keep
// counting from 0, every live job stays addressable, and the index never
// holds more than a few slots per live job. A retired index stays dead,
// inside the window or dropped from it.
func TestStreamJobIndexStaysBounded(t *testing.T) {
	w := NewDynamicStream(topology.New(topology.Balanced(2)), 1)
	const jobs, live = 10_000, 4
	var admitted []int
	retire := func(i int) {
		j := admitted[i]
		w.Release(j)
		w.Retire(j)
		admitted = append(admitted[:i], admitted[i+1:]...)
	}
	for n := range jobs {
		j, err := w.Admit(JobSpec{Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if j != n {
			t.Fatalf("job %d admitted as index %d", n, j)
		}
		if err := w.Place(j); err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, j)
		for _, a := range admitted {
			if len(w.JobNodes(a)) != 4 {
				t.Fatalf("after admitting job %d, job %d has %d nodes", j, a, len(w.JobNodes(a)))
			}
		}
		if len(admitted) == live {
			retire(n % 2) // the oldest, or the one after it
		}
		if cap(w.jobs) > 4*live {
			t.Fatalf("after %d jobs, %d live, the index holds %d slots", n+1, len(admitted), cap(w.jobs))
		}
	}
	if w.base == 0 {
		t.Fatal("the index never moved past a retired job")
	}
	dead := []int{0} // dropped from the window
	for i, jb := range w.jobs {
		if jb == nil {
			dead = append(dead, w.base+i) // still inside it
			break
		}
	}
	if len(dead) != 2 {
		t.Fatal("no retired job inside the index window")
	}
	for _, j := range dead {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("retiring job %d a second time did not panic", j)
				}
			}()
			w.Retire(j)
		}()
	}
}
