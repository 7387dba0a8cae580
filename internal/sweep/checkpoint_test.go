package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Grid.Run's records aggregate exactly as its points' whole samples,
// condensed by RecordOf, do — a Record loses nothing aggregation reads.
func TestRecordAggregationMatchesSamples(t *testing.T) {
	g := testGrid()
	samples := runSamples(g, nil)
	records := make([]Record, len(samples))
	for i, s := range samples {
		records[i] = RecordOf("", s)
	}
	want, werr := AggregateRecords(records)
	if werr != nil {
		t.Fatal(werr)
	}
	got, gerr := AggregateRecords(g.Run(nil))
	if gerr != nil {
		t.Fatal(gerr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("series differ:\nsamples: %+v\nrecords: %+v", want, got)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, "cfgA")
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid()
	g.Loads = []float64{0.1}
	g.Mechanisms = []string{"MIN"}
	records := g.Run(nil)
	for i := range records {
		records[i].Task = "fig"
		if err := ck.Put(records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if ck.Len() != len(records) {
		t.Fatalf("Len %d, want %d", ck.Len(), len(records))
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(path, "cfgA")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(records) {
		t.Fatalf("reloaded %d records, want %d", re.Len(), len(records))
	}
	for _, want := range records {
		rec, ok := re.Lookup("fig", want.Point)
		if !ok {
			t.Fatalf("point %+v missing after reload", want.Point)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("record round-trip differs:\ngot  %+v\nwant %+v", rec, want)
		}
	}
	if _, ok := re.Lookup("otherfig", records[0].Point); ok {
		t.Fatal("Lookup ignored the task name")
	}
}

// A checkpoint produced under a different configuration must be rejected,
// not silently reused.
func TestCheckpointMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, "cfgA")
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if _, err := OpenCheckpoint(path, "cfgB"); err == nil {
		t.Fatal("stale checkpoint accepted")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// A checkpoint written under a different record schema must be rejected
// at load: records travel between hosts now, and misreading a foreign
// layout would silently corrupt served results.
func TestCheckpointSchemaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(`{"meta":"cfg","schema":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "cfg"); err == nil {
		t.Fatal("old-schema checkpoint accepted")
	} else if !strings.Contains(err.Error(), "schema") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Pre-versioning files (no schema field at all = schema 0) are
	// rejected the same way.
	if err := os.WriteFile(path, []byte(`{"meta":"cfg"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "cfg"); err == nil {
		t.Fatal("pre-versioning checkpoint accepted")
	}
}

// A well-formed record under the wrong schema is a version mismatch, not
// a torn tail: the file must be refused, never truncated.
func TestCheckpointSchemaMismatchRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	content := `{"meta":"cfg","schema":2}` + "\n" +
		`{"schema":1,"task":"f","point":{"Mechanism":"MIN","Pattern":"UN","Load":0.1,"Seed":1},"mechanism":"MIN","pattern":"UN","throughput":0.5,"avg_latency":1,"breakdown":{}}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "cfg"); err == nil {
		t.Fatal("mixed-schema record accepted")
	} else if !strings.Contains(err.Error(), "schema") {
		t.Fatalf("unhelpful error: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != content {
		t.Fatal("schema mismatch truncated the file as if it were a torn tail")
	}
}

// Freshly written checkpoints stamp the current schema on the meta line
// and on every record.
func TestCheckpointWritesSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Task: "f", Point: Point{Mechanism: "MIN", Pattern: "UN", Load: 0.1, Seed: 1}}
	if err := ck.Put(rec); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.Contains(line, `"schema":2`) {
			t.Fatalf("line %d lacks the schema stamp: %s", i, line)
		}
	}
}

// A torn trailing line (kill mid-write) must not lose the complete records
// before it.
func TestCheckpointTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Task: "f", Point: Point{Mechanism: "MIN", Pattern: "UN", Load: 0.1, Seed: 1}, Throughput: 0.5}
	if err := ck.Put(rec); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"task":"f","point":{"Mech`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenCheckpoint(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reloaded %d records, want 1 (torn tail dropped)", re.Len())
	}
	if _, ok := re.Lookup("f", rec.Point); !ok {
		t.Fatal("complete record lost to the torn tail")
	}
	// The torn tail must have been truncated away: a record appended now
	// must not glue onto the debris and must survive the next reload.
	rec2 := rec
	rec2.Point.Seed = 2
	if err := re.Put(rec2); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := OpenCheckpoint(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 2 {
		t.Fatalf("after torn-tail recovery + append, reload found %d records, want 2", re2.Len())
	}
	if _, ok := re2.Lookup("f", rec2.Point); !ok {
		t.Fatal("record appended after torn-tail recovery was lost")
	}
}

// A file that is not a checkpoint at all must be refused untouched, even
// when it lacks a trailing newline — never truncated.
func TestCheckpointForeignFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	const content = "do not eat me"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "cfg"); err == nil {
		t.Fatal("foreign file accepted as checkpoint")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != content {
		t.Fatalf("foreign file was modified: %q", data)
	}
}

// Aggregating the record of a sample that never ran (no result, no error)
// must report the gap, not panic on the nil Result.
func TestAggregateCancelledSlots(t *testing.T) {
	g := testGrid()
	g.Mechanisms = []string{"MIN"}
	g.Loads = []float64{0.1}
	g.Seeds = []uint64{1}
	records := g.Run(nil)
	records = append(records, RecordOf("", Sample{Point: Point{Mechanism: "MIN", Pattern: "UN", Load: 0.2, Seed: 1}}))
	series, err := AggregateRecords(records)
	if err == nil {
		t.Fatal("unfinished slot not reported")
	}
	if !strings.Contains(err.Error(), "not run") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if len(series) != 1 {
		t.Fatalf("finished points lost: %d series", len(series))
	}
}

// Lookup returns records under the caller's point identity: a load that
// differs only past the key's 9 significant digits (literal 0.3 vs range
// accumulation) must restore, carrying the requested Point so downstream
// exact-equality matching stays consistent.
func TestCheckpointLookupNormalizesPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	a, b := 0.1, 0.2
	accumulated := a + b // runtime sum: 0.30000000000000004 != 0.3
	if accumulated == 0.3 {
		t.Fatal("test premise broken: accumulation equals the literal")
	}
	stored := Record{Task: "f", Point: Point{Mechanism: "MIN", Pattern: "UN", Load: accumulated, Seed: 1}, Throughput: 0.25}
	if err := ck.Put(stored); err != nil {
		t.Fatal(err)
	}
	want := Point{Mechanism: "MIN", Pattern: "UN", Load: 0.3, Seed: 1}
	rec, ok := ck.Lookup("f", want)
	if !ok {
		t.Fatal("nearly-equal load did not restore")
	}
	if rec.Point != want {
		t.Fatalf("restored record carries %+v, want the requested %+v", rec.Point, want)
	}
	if rec.Throughput != stored.Throughput {
		t.Fatal("payload lost in normalization")
	}
}

// A nil checkpoint is a valid no-op store.
func TestCheckpointNil(t *testing.T) {
	var ck *Checkpoint
	if err := ck.Put(Record{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.Lookup("f", Point{}); ok {
		t.Fatal("nil checkpoint claims to hold records")
	}
	if ck.Len() != 0 || ck.Close() != nil {
		t.Fatal("nil checkpoint misbehaves")
	}
}

// Failed simulations checkpoint too (deterministic failures are not worth
// re-running), and aggregation reports them after resume.
func TestCheckpointPersistsErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	pt := Point{Mechanism: "MIN", Pattern: "UN", Load: 0.9, Seed: 7}
	if err := ck.Put(RecordOf("f", Sample{Point: pt, Err: errFake{}})); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	re, err := OpenCheckpoint(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec, ok := re.Lookup("f", pt)
	if !ok || rec.Err != "fake" {
		t.Fatalf("error record lost: %+v ok=%v", rec, ok)
	}
	if _, err := AggregateRecords([]Record{rec}); err == nil {
		t.Fatal("aggregation swallowed the stored failure")
	}
}
