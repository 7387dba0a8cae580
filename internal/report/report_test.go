package report

import (
	"strings"
	"testing"

	"dragonfly/internal/stats"
	"dragonfly/internal/sweep"
)

func sampleSeries() []sweep.Series {
	return []sweep.Series{
		{
			Mechanism: "Obl-RRG", Pattern: "ADVc", Load: 0.4,
			Throughput: 0.398, AvgLatency: 321.5,
			Breakdown:  stats.Breakdown{Base: 200, Misroute: 80, WaitLocal: 20, WaitGlobal: 15, WaitInj: 6.5},
			Fairness:   stats.Fairness{MinInj: 4079, MaxInj: 4687, MaxMin: 1.149, CoV: 0.0175, Jain: 0.999},
			Injections: []float64{100, 110, 120, 90},
		},
		{
			Mechanism: "In-Trns-MM", Pattern: "ADVc", Load: 0.4,
			Throughput: 0.35, AvgLatency: 500,
			Breakdown:  stats.Breakdown{Base: 210, Misroute: 150, WaitLocal: 60, WaitGlobal: 30, WaitInj: 50},
			Fairness:   stats.Fairness{MinInj: 69.33, MaxInj: 5032, MaxMin: 72.576, CoV: 0.2858, Jain: 0.8},
			Injections: []float64{100, 110, 120, 5},
		},
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("A", "BBBB", "C")
	tb.AddRow("x", "y")
	tb.AddRow("longer", "z", "w")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing separator line")
	}
	// All rows equal width.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

func TestFairnessTable(t *testing.T) {
	out := FairnessTable(sampleSeries()).String()
	for _, want := range []string{"Obl-RRG", "In-Trns-MM", "Min inj", "Max/Min", "COV", "72.576", "0.0175"} {
		if !strings.Contains(out, want) {
			t.Errorf("fairness table missing %q:\n%s", want, out)
		}
	}
}

func TestInjectionTable(t *testing.T) {
	out := InjectionTable(sampleSeries(), 0, 4).String()
	for _, want := range []string{"R0", "R3", "Obl-RRG", "120", "5"} {
		if !strings.Contains(out, want) {
			t.Errorf("injection table missing %q:\n%s", want, out)
		}
	}
}

func TestCurveCSV(t *testing.T) {
	var sb strings.Builder
	if err := CurveCSV(&sb, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "mechanism,pattern,offered_load") {
		t.Errorf("bad header %q", lines[0])
	}
	if !strings.Contains(lines[1], "Obl-RRG,ADVc,0.4000,321.50,0.3980") {
		t.Errorf("bad row %q", lines[1])
	}
}

func TestBreakdownCSVAndTable(t *testing.T) {
	var sb strings.Builder
	if err := BreakdownCSV(&sb, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "base,misroute") {
		t.Errorf("bad breakdown CSV header: %s", sb.String())
	}
	// Component sum appears as the total column.
	if !strings.Contains(sb.String(), "321.50") {
		t.Errorf("breakdown CSV missing total: %s", sb.String())
	}
	tbl := BreakdownTable(sampleSeries()).String()
	for _, want := range []string{"Base", "Misroute", "InjQueue", "Total"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("breakdown table missing %q:\n%s", want, tbl)
		}
	}
}

func TestFairnessSummary(t *testing.T) {
	s := FairnessSummary(stats.Fairness{MinInj: 1, MaxMin: 2, CoV: 0.5, Jain: 0.9})
	for _, want := range []string{"min inj 1.00", "max/min 2.000", "CoV 0.5000", "Jain 0.9000"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}
