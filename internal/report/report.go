// Package report renders sweep results as the paper's tables and figure
// data: aligned ASCII tables for terminals and CSV series suitable for
// gnuplot, one file or section per figure.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/sweep"
)

// Table is a simple aligned-text table builder.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total-2))
	sb.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return ""
	}
	return sb.String()
}

// FairnessTable renders the Table II/III layout: one row per mechanism with
// Min inj, Max/Min and CoV.
func FairnessTable(series []sweep.Series) *Table {
	t := NewTable("Mechanism", "Min inj", "Max/Min", "COV")
	for _, s := range series {
		t.AddRow(
			s.Mechanism,
			fmt.Sprintf("%.2f", s.Fairness.MinInj),
			fmt.Sprintf("%.3f", s.Fairness.MaxMin),
			fmt.Sprintf("%.4f", s.Fairness.CoV),
		)
	}
	return t
}

// InjectionTable renders the Figure 4/6 data: one row per mechanism, one
// column per router of the chosen group.
func InjectionTable(series []sweep.Series, group, routersPerGroup int) *Table {
	header := []string{"Mechanism"}
	for i := 0; i < routersPerGroup; i++ {
		header = append(header, fmt.Sprintf("R%d", i))
	}
	t := NewTable(header...)
	for _, s := range series {
		row := []string{s.Mechanism}
		base := group * routersPerGroup
		for i := 0; i < routersPerGroup; i++ {
			row = append(row, fmt.Sprintf("%.0f", s.Injections[base+i]))
		}
		t.AddRow(row...)
	}
	return t
}

// CurveTable renders the Figure 2/5 curves as text: one row per
// (mechanism, pattern, load) with latency and throughput.
func CurveTable(series []sweep.Series) *Table {
	t := NewTable("Mechanism", "Pattern", "Load", "Latency(cyc)", "Throughput")
	for _, s := range series {
		t.AddRow(s.Mechanism, s.Pattern, fmt.Sprintf("%.3f", s.Load),
			fmt.Sprintf("%.1f", s.AvgLatency), fmt.Sprintf("%.4f", s.Throughput))
	}
	return t
}

// CurveCSV writes Figure 2/5-style series as CSV: one block per
// (mechanism, pattern) with load, latency and throughput columns.
func CurveCSV(w io.Writer, series []sweep.Series) error {
	if _, err := fmt.Fprintln(w, "mechanism,pattern,offered_load,avg_latency_cycles,accepted_load"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "%s,%s,%.4f,%.2f,%.4f\n",
			s.Mechanism, s.Pattern, s.Load, s.AvgLatency, s.Throughput); err != nil {
			return err
		}
	}
	return nil
}

// BreakdownCSV writes Figure 3-style latency components per load.
func BreakdownCSV(w io.Writer, series []sweep.Series) error {
	if _, err := fmt.Fprintln(w, "offered_load,base,misroute,congestion_local,congestion_global,injection_queue,total"); err != nil {
		return err
	}
	sorted := append([]sweep.Series(nil), series...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Load < sorted[j].Load })
	for _, s := range sorted {
		b := s.Breakdown
		if _, err := fmt.Fprintf(w, "%.4f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			s.Load, b.Base, b.Misroute, b.WaitLocal, b.WaitGlobal, b.WaitInj, b.Total()); err != nil {
			return err
		}
	}
	return nil
}

// BreakdownTable renders the Figure 3 components as text.
func BreakdownTable(series []sweep.Series) *Table {
	t := NewTable("Load", "Base", "Misroute", "Cong(local)", "Cong(global)", "InjQueue", "Total")
	sorted := append([]sweep.Series(nil), series...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Load < sorted[j].Load })
	for _, s := range sorted {
		b := s.Breakdown
		t.AddRow(
			fmt.Sprintf("%.2f", s.Load),
			fmt.Sprintf("%.1f", b.Base),
			fmt.Sprintf("%.1f", b.Misroute),
			fmt.Sprintf("%.1f", b.WaitLocal),
			fmt.Sprintf("%.1f", b.WaitGlobal),
			fmt.Sprintf("%.1f", b.WaitInj),
			fmt.Sprintf("%.1f", b.Total()),
		)
	}
	return t
}

// InterferenceMatrixTable renders the N×N solo-vs-paired interference
// matrix: row i, column j is job i's paired-with-j latency over its solo
// latency (1.00 = j does not hurt i; blank = no data, e.g. a job that
// delivered nothing solo).
func InterferenceMatrixTable(names []string, m [][]float64) *Table {
	header := []string{"Victim\\With"}
	header = append(header, names...)
	t := NewTable(header...)
	for i, row := range m {
		cells := []string{names[i]}
		for _, v := range row {
			if v == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.2f", v))
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// FairnessSummary formats a one-line fairness summary.
func FairnessSummary(f stats.Fairness) string {
	return fmt.Sprintf("min inj %.2f, max/min %.3f, CoV %.4f, Jain %.4f",
		f.MinInj, f.MaxMin, f.CoV, f.Jain)
}

// JobTable renders the per-job metrics of a multi-job workload run: one row
// per job with its size, counters, per-node throughput, latency and
// intra-job fairness. interference may be nil; when present it adds the
// mixed-vs-solo latency ratio column (1.00 = no inter-job interference),
// leaving cells blank for jobs beyond its length.
func JobTable(res *sim.Result, interference []float64) *Table {
	header := []string{"Job", "Nodes", "Generated", "Injected", "Delivered", "Thr/node", "AvgLat", "P50", "P99", "MaxLat", "CoV"}
	if interference != nil {
		header = append(header, "Interf")
	}
	t := NewTable(header...)
	for j := 0; j < res.NumJobs(); j++ {
		jt := res.JobTotal(j)
		row := []string{
			res.JobNames[j],
			fmt.Sprintf("%d", res.JobNodes[j]),
			fmt.Sprintf("%d", jt.Generated),
			fmt.Sprintf("%d", jt.Injected),
			fmt.Sprintf("%d", jt.Delivered),
			fmt.Sprintf("%.4f", res.JobThroughput(j)),
			fmt.Sprintf("%.1f", res.JobAvgLatency(j)),
			fmt.Sprintf("%d", jt.Latencies.Quantile(0.50)),
			fmt.Sprintf("%d", jt.Latencies.Quantile(0.99)),
			fmt.Sprintf("%d", jt.MaxLatency),
			fmt.Sprintf("%.4f", res.JobFairness(j).CoV),
		}
		if j < len(interference) {
			row = append(row, fmt.Sprintf("%.2f", interference[j]))
		}
		t.AddRow(row...)
	}
	return t
}
