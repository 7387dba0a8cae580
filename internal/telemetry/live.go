package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Live is the shared accumulator behind the live-introspection endpoints
// (/api/progress, /api/tasks). It aggregates whatever its host process
// feeds it — pipeline progress and per-task timings — and hands out
// JSON-ready snapshots through exported accessors. The HTTP surface
// itself is defined once, in internal/serve
// (serve.liveRoutes), and shared by dfserved and dfexperiments -listen;
// this type stays transport-free so the telemetry layer never grows a
// second copy of the endpoints.
//
// All methods are safe for concurrent use; feeding is cheap (a mutex and
// a few scalars), so progress callbacks can call it unconditionally.
type Live struct {
	mu       sync.Mutex
	start    time.Time
	task     string // most recently active task
	done     int
	total    int
	restored int
	tasks    map[string]*TaskTiming
}

// TaskTiming aggregates the completed points of one task.
type TaskTiming struct {
	Task        string  `json:"task"`
	Points      int     `json:"points"`
	Restored    int     `json:"restored"`
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
}

// NewLive builds an accumulator; the clock for ProgressSnapshot starts
// now.
func NewLive() *Live {
	return &Live{start: time.Now(), tasks: make(map[string]*TaskTiming)}
}

// SetTotal sets the run's total point count.
func (l *Live) SetTotal(total int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total = total
}

// AddTotal grows the total point count — long-running daemons accept
// work incrementally rather than knowing it all up front.
func (l *Live) AddTotal(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total += n
}

// NotePoint records one completed (or checkpoint-restored) point of a task
// with its wall/CPU cost in seconds (zero for restored points).
func (l *Live) NotePoint(task string, wall, cpu float64, restored bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.task = task
	l.done++
	t := l.tasks[task]
	if t == nil {
		t = &TaskTiming{Task: task}
		l.tasks[task] = t
	}
	t.Points++
	t.WallSeconds += wall
	t.CPUSeconds += cpu
	if restored {
		l.restored++
		t.Restored++
	}
}

// ProgressSnapshot is the /api/progress document.
type ProgressSnapshot struct {
	Task           string  `json:"task"`
	Done           int     `json:"done"`
	Total          int     `json:"total"`
	Restored       int     `json:"restored"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// Progress returns the current progress snapshot.
func (l *Live) Progress() ProgressSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ProgressSnapshot{
		Task:           l.task,
		Done:           l.done,
		Total:          l.total,
		Restored:       l.restored,
		ElapsedSeconds: time.Since(l.start).Seconds(),
	}
}

// Timings returns the per-task aggregates sorted by wall time, slowest
// first (ties by name for a deterministic order).
func (l *Live) Timings() []TaskTiming {
	l.mu.Lock()
	out := make([]TaskTiming, 0, len(l.tasks))
	for _, t := range l.tasks {
		out = append(out, *t)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallSeconds != out[j].WallSeconds {
			return out[i].WallSeconds > out[j].WallSeconds
		}
		return out[i].Task < out[j].Task
	})
	return out
}
