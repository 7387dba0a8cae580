package report

import (
	"fmt"

	"dragonfly/internal/scheduler"
)

// cyc renders an absolute cycle, with "-" for events that never happened.
func cyc(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// ScheduleTable renders the per-job lifecycle of a scheduled run: one row
// per trace job with its placement, arrival/start/completion cycles,
// wait/run split, slowdown and whole-run delivered packets.
func ScheduleTable(res *scheduler.Result) *Table {
	t := NewTable("Job", "Nodes", "Alloc", "Arrival", "Start", "Wait", "Completion", "Run", "Slowdown", "Delivered")
	for _, j := range res.Jobs {
		slow := "-"
		if j.Slowdown > 0 {
			slow = fmt.Sprintf("%.2f", j.Slowdown)
		}
		t.AddRow(
			j.Name,
			fmt.Sprintf("%d", j.Nodes),
			j.Alloc,
			fmt.Sprintf("%d", j.Arrival),
			cyc(j.Start),
			cyc(j.Wait),
			cyc(j.Completion),
			cyc(j.Run),
			slow,
			fmt.Sprintf("%d", j.Delivered),
		)
	}
	return t
}

// ScheduleJSON is the machine-readable form of a scheduled run: the trace
// aggregates and per-job lifecycles next to the standard simulation record.
type ScheduleJSON struct {
	Discipline  string                `json:"discipline"`
	TotalCycles int64                 `json:"total_cycles"`
	Completed   int                   `json:"completed_jobs"`
	Makespan    int64                 `json:"makespan"`
	SlowdownP50 float64               `json:"slowdown_p50,omitempty"`
	SlowdownP99 float64               `json:"slowdown_p99,omitempty"`
	Jobs        []scheduler.JobResult `json:"jobs"`
	Sim         ResultJSON            `json:"sim"`
}

// NewScheduleJSON converts a scheduled-run result.
func NewScheduleJSON(res *scheduler.Result) ScheduleJSON {
	return ScheduleJSON{
		Discipline:  res.Discipline,
		TotalCycles: res.TotalCycles,
		Completed:   res.Completed,
		Makespan:    res.Makespan,
		SlowdownP50: res.SlowdownQuantile(0.50),
		SlowdownP99: res.SlowdownQuantile(0.99),
		Jobs:        res.Jobs,
		Sim:         newResultJSON(res.Sim),
	}
}
