package telemetry

import "testing"

// The HTTP surface over Live lives in internal/serve (liveRoutes) and is
// tested there; these tests cover the accumulator itself.

func TestLiveAccumulates(t *testing.T) {
	l := NewLive()
	l.SetTotal(10)
	l.NotePoint("fig2a", 2.0, 3.0, false)
	l.NotePoint("fig2a", 1.5, 2.5, false)
	l.NotePoint("fig4", 0.0, 0.0, true)

	prog := l.Progress()
	if prog.Task != "fig4" || prog.Done != 3 || prog.Total != 10 || prog.Restored != 1 {
		t.Fatalf("progress = %+v", prog)
	}

	l.AddTotal(5)
	if got := l.Progress().Total; got != 15 {
		t.Fatalf("total after AddTotal = %d, want 15", got)
	}

	tasks := l.Timings()
	if len(tasks) != 2 || tasks[0].Task != "fig2a" || tasks[0].Points != 2 {
		t.Fatalf("tasks = %+v", tasks)
	}
	if tasks[0].WallSeconds != 3.5 || tasks[0].CPUSeconds != 5.5 {
		t.Fatalf("fig2a timing = %+v", tasks[0])
	}
}
