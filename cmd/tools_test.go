// Package cmd_test checks the tools through which the paper's figures and
// tables reach a reader. TestMain builds dfsim, dfsweep, dfexperiments and
// dfsched once (-race in a race build); TestTools runs one table of rows on
// them: outputs equal to testdata/*.golden (go test ./cmd -update rewrites
// them), input refused with its reason, and checks of what a run writes.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/scheduler"
	"dragonfly/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the tools' output")
var bin string // the built tools
var wallSeconds = regexp.MustCompile(`(?m)^.*wall_seconds.*\n`)

func TestMain(m *testing.M) {
	flag.Parse()
	bin, _ = os.MkdirTemp("", "dftools")
	out, err := exec.Command("go", "build", "-o", bin+"/", "-race="+fmt.Sprint(raceEnabled), "./dfsim", "./dfsweep", "./dfexperiments", "./dfsched").CombinedOutput()
	code := 1
	if err == nil {
		code = m.Run()
	} else {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	}
	os.RemoveAll(bin)
	os.Exit(code)
}

// A row runs its commands ("[VAR=value ...] tool args", $T its own
// directory; "== title" prints itself), which must succeed but for a
// refusal row's last: that one must fail with refuse on stderr. The last
// command's stderr must also hold the row's stderr text. A golden row's
// output is the file or directory (its CSVs, each under "== name") of the
// golden's name in $T, else the stdout, wall_seconds lines dropped; check
// gets each stdout.
type row struct {
	name, golden, refuse, stderr string
	cmds                         []string
	check                        func(t *testing.T, dir string, outs [][]byte)
}

const (
	net    = "-h 2 -warmup 200 -measure 600"
	sweep1 = "dfsweep " + net + " -pattern ADVc -mechanisms MIN,In-Trns-MM -loads 0.1,0.4 -seeds 2 -quiet -csv $T/dfsweep.csv"
	brk    = "dfsweep -report breakdown " + net + " -pattern ADVc -mechanisms In-Trns-MM -loads 0.1,0.4 -seeds 1 -quiet -csv $T/dfbreakdown.csv"
	exps   = "dfexperiments " + net + " -mechanisms MIN,In-Trns-MM -loads 0.1,0.4 -seeds 1 -quiet -slowest 0 -out $T/"
	replay = "dfsched -h 2 -warmup 200 -measure 3000 -seeds 2 -discipline "
	jobs   = "dfsim " + net + " -load 0.5 -job name=a,nodes=24,alloc=consecutive -job name=b,nodes=16,alloc=spread,first=3,load=0.2 -job name=c,nodes=16,alloc=random,pattern=PERM,load=0.6,phase=bursty,period=300,duty=0.5 -interference -interference-matrix"
	debug  = "dfsim " + net + " -mechanism Src-CRG -pattern ADVc -load 0.3 -group 2"
	prof   = "dfsim " + net + " -mechanism MIN -pattern ADVc -load 0.3 -json"
	gen    = "dfsched -h 2 -warmup 100 -generate 20 -gen-arrival 25 -gen-dur-median 200 -disciplines fcfs -checkpoint $T/s.ckpt"
	capped = "dfsched -h 2 -warmup 100 -generate 50 -gen-arrival 25 -gen-dur-median 200 -disciplines fcfs -json"
	study  = "dfsched -h 2 -warmup 100 -generate 20 -disciplines fcfs"
	demo   = "dfsched -h 2 -warmup 100 -measure 400"
	point  = net + " -mechanisms MIN -loads 0.1 -seeds 1 -quiet"
	grid   = "dfsweep " + net + " -mechanisms MIN -quiet"
	fair   = grid + " -loads 0.4 -report fair"
	budget = "dfsweep -h 2 -warmup 100 -measure 300 -mechanisms MIN,In-Trns-MM -pattern UN -loads 0.1,0.2,0.3,0.4 -seeds 2 -quiet"
)

var rows = []row{
	{golden: "dfsweep.txt", cmds: []string{sweep1}},
	{golden: "dfsweep.csv", cmds: []string{sweep1}},
	{golden: "dffair.txt", cmds: []string{"dfsweep -report fair " + net + " -pattern ADVc -mechanisms Obl-RRG,In-Trns-MM -loads 0.4 -seeds 2 -priority=false -quiet"}},
	{golden: "dfbreakdown.txt", cmds: []string{brk}},
	{golden: "dfbreakdown.csv", cmds: []string{brk}},
	{golden: "dfexperiments.csvs", cmds: []string{exps + "dfexperiments.csvs"}},
	{golden: "dfsched.json", cmds: []string{"dfsched -h 2 -warmup 200 -generate 300 -gen-arrival 25 -gen-dur-median 200 -disciplines fcfs,backfill,easy -seeds 2 -out $T/dfsched.json"}},
	// Under EASY "head" blocks behind "big", "bf" backfills at once and "q"
	// queues until "sp" reaches its packet target.
	{golden: "dfsched-replay.txt", cmds: []string{replay + "easy -job name=big,nodes=40,alloc=consecutive,load=0.3,arrival=0,duration=1500 -job name=sp,nodes=24,alloc=spread,first=4,load=0.2,arrival=50,duration=400,dkind=packets -job name=head,nodes=36,alloc=random,arrival=100,duration=600 -job name=bf,nodes=8,alloc=random,arrival=150,duration=300 -job name=q,nodes=16,arrival=200,duration=2000 -job name=burst,nodes=8,load=0.5,phase=bursty,period=600,duty=0.5,arrival=300 -job name=late,nodes=12,alloc=spread,arrival=1600,duration=150,dkind=packets -job name=tail,nodes=8,alloc=random,arrival=1700,duration=5000",
		"== demo trace, fcfs", replay + "fcfs"}},
	{golden: "dfworkload.txt", cmds: []string{jobs, "== Section III app case", "dfsim " + net + " -load 0.3 -job name=app,nodes=24,alloc=consecutive",
		"== -spec", "dfsim " + net + " -load 0.4 -spec testdata/workload.json -group 2"}},
	{golden: "dfworkload.json", cmds: []string{jobs + " -json"}},
	{golden: "dfsim.json", cmds: []string{prof, "dfsim " + net + " -mechanism Src-CRG -pattern UN -load 0.5 -priority=false -json"}},
	{golden: "dfsim-debug.txt", cmds: []string{debug + " -debug -trace-out $T/debug.json"}},
	// dfsched: a cycle budget that wraps, generator parameters no clamp can
	// repair, a study resumed under another network, flags its path ignores.
	refused("job 0: cycle budget", demo+" -job nodes=8,arrival=5,duration=9223372036854775807 -job nodes=8,arrival=10,duration=100"),
	refused("InterArrival must be > 0 and finite", "dfsched -h 2 -warmup 100 -generate 50 -gen-arrival +Inf -disciplines fcfs"),
	refused("sigmas must be ≥ 0 and finite", "dfsched -h 2 -warmup 100 -generate 50 -gen-dur-sigma NaN -disciplines fcfs"),
	refused("produced by a different configuration", gen, gen+" -global-lat 400"),
	refused("-probe-every does not apply to -generate", study+" -probe-every 10"),
	refused("-probe-out does not apply to -generate", study+" -probe-out $T/p.jsonl"),
	refused("flag provided but not defined: -seed-jobs", study+" -seeds 2 -seed-jobs 1"),
	refused("-checkpoint applies only to -generate", demo+" -checkpoint $T/r.ckpt -out $T/r.json"),
	refused("-out applies only to -generate", demo+" -out $T/r.json"),
	refused("-disciplines applies only to -generate", demo+" -disciplines fcfs"),
	refused("-allocs applies only to -generate", demo+" -allocs spread"),
	refused("-gen-arrival applies only to -generate", demo+" -gen-arrival 25"),
	refused("-probe-out applies only to -probe-every", demo+" -probe-out $T/q.jsonl"),
	// dfsweep and dfexperiments: deleted flags, values the core would
	// truncate, axes that never finish or run nothing, reports over a grid
	// their tables have no column for, a pipeline with no point.
	refused("flag provided but not defined: -reuse", "dfsweep "+point+" -reuse warm"),
	refused("flag provided but not defined: -rewarm", "dfexperiments "+point+" -rewarm 0"),
	refused("congestion threshold", "dfsweep "+point+" -threshold 1.5"),
	refused("overflows the cycle counter", "dfsweep -h 2 -warmup 9223372036854775807 -measure 1 -mechanisms MIN -loads 0.1 -seeds 1 -quiet"),
	refused("link latencies must be at most 2147483647 cycles", "dfsweep "+point+" -local-lat 2147483648"),
	refused("link latencies must be at most 2147483647 cycles", "dfsweep "+point+" -latency-model groupskew -global-lat 2147483000"),
	refused("link latencies must be at most 2147483647 cycles", "dfexperiments "+point+" -latency-models groupskew -global-lat 2147483000"),
	refused("injection queue of 2147483648 packets exceeds 2147483647 phits", "dfsweep "+point+" -inj-queue 2147483648"),
	refused(`bad range spec "0:inf:0.1"`, grid+" -loads 0:inf:0.1"),
	refused("seed count -1 outside", grid+" -loads 0.1 -seeds -1"),
	refused("seed count 0 outside", grid+" -loads 0.1 -seeds 0"),
	refused(`unknown report "histogram"`, grid+" -loads 0.1 -report histogram"),
	refused("one pattern at one load, got 1 patterns and 2 loads", grid+" -loads 0.1,0.4 -report fair"),
	refused("one pattern at one load, got 2 patterns and 1 loads", fair+" -pattern UN,ADVc"),
	refused("-report fair has no CSV", fair+" -csv $T/fair.csv"),
	refused("one mechanism under one pattern, got 2 mechanisms", "dfsweep "+net+" -mechanisms MIN,In-Trns-MM -quiet -loads 0.4 -report breakdown"),
	refused("one mechanism under one pattern, got 1 mechanisms and 2 patterns", grid+" -pattern UN,ADVc -loads 0.4 -report breakdown"),
	refused("-group 9 outside [0, 9)", fair+" -group 9"),
	refused("-group -1 outside", fair+" -group -1"),
	refused("-group applies only to -report fair", "dfsweep "+point+" -group 3"),
	refused("-group applies only to -report fair", grid+" -loads 0.4 -report breakdown -group 3"),
	refused(`bad -fair-load NaN`, "dfexperiments "+point+" -fair-load NaN"),
	refused(`bad -fair-load -0.5`, "dfexperiments "+point+" -fair-load -0.5"),
	refused("no task has a point to run", "dfexperiments "+point+" -skip-sweeps"),
	// dfsim: a truncated value, a node outside the machine, flags that
	// contradict each other or that the run would ignore.
	refused("link latencies must be at most 2147483647 cycles", "dfsim -h 2 -warmup 100 -measure 200 -global-lat 2147483648"),
	refused("-trace 100000 out of range [0,72)", "dfsim "+net+" -trace 100000"),
	refused("use either -spec or -job, not both", "dfsim "+net+" -spec testdata/workload.json -job nodes=8"),
	refused("-pattern does not apply to a -job/-spec workload", "dfsim "+net+" -pattern UN -job nodes=8"),
	refused("-interference and -interference-matrix need a -job or -spec workload", "dfsim "+net+" -interference"),
	refused("-interference and -interference-matrix need a -job or -spec workload", "dfsim "+net+" -pattern ADVc -interference-matrix"),
	refused("-debug prints buffer snapshots, not JSON", "dfsim "+net+" -debug -json"),
	refused("-probe-out applies only to -probe-every", "dfsim "+net+" -probe-out $T/p.jsonl"),
	refused("-trace-sample applies only to -trace-out", "dfsim "+net+" -trace-sample 4"),
	refused("-trace-sample does not apply to -trace", "dfsim "+net+" -trace 5 -trace-out $T/t.json -trace-sample 4"),
	refused("-trace-max applies only to -trace", "dfsim "+net+" -trace-max 10"),
	refused("flag provided but not defined: -interference-jobs", "dfsim "+net+" -job nodes=8 -interference-jobs 2"),
	refused("-group applies only to the text report and -debug", "dfsim "+net+" -json -group 3"),
	// -full sets the paper's network and cycle counts, in every tool.
	refused("-h does not apply to -full", "dfsim -full -h 2 -mechanism MIN -load 0.001"),
	refused("-p does not apply to -full", "dfsim -full -p 2 -mechanism MIN -load 0.001"),
	refused("-a does not apply to -full", "dfsim -full -a 4 -mechanism MIN -load 0.001"),
	refused("-warmup does not apply to -full", "dfsim -full -warmup 10 -mechanism MIN -load 0.001"),
	refused("-measure does not apply to -full", "dfsim -full -measure 10 -mechanism MIN -load 0.001"),
	refused("-measure does not apply to -full", "dfsched -generate 20 -gen-arrival 25 -gen-dur-median 200 -disciplines fcfs -full -measure 500"),
	// One parallelism budget: GOMAXPROCS ÷ -workers runs at once, so a
	// grid whose runs never overlap restores every point but the first over
	// the network the one before it retired.
	{name: "one-budget-serial", stderr: "1 fresh + 15 recycled restores", cmds: []string{"GOMAXPROCS=1 " + budget}},
	{name: "one-budget-split", stderr: "1 fresh + 15 recycled restores", cmds: []string{"GOMAXPROCS=2 " + budget + " -workers 2"}},
	// Flags that must leave a run alone, and what a run must write.
	{name: "debug-same-trace", cmds: []string{debug + " -debug -trace-out $T/a.json", debug + " -trace-out $T/b.json"}, check: func(t *testing.T, dir string, _ [][]byte) {
		if !bytes.Equal(read(t, dir, "a.json"), read(t, dir, "b.json")) {
			t.Error("dfsim -debug -trace-out: the trace differs from the same run's without -debug")
		}
	}},
	{name: "cpuprofile", cmds: []string{prof + " -cpuprofile $T/cpu.prof", prof}, check: func(t *testing.T, dir string, outs [][]byte) {
		if len(read(t, dir, "cpu.prof")) == 0 || !bytes.Equal(outs[0], outs[1]) {
			t.Error("dfsim -cpuprofile: no profile, or the output differs from the same run's without it")
		}
	}},
	// A study record is its network point's, under the task discipline/alloc.
	{name: "study-record", cmds: []string{gen}, check: func(t *testing.T, dir string, _ [][]byte) {
		var rec sweep.Record
		var sum scheduler.StreamSummary
		lines := bytes.Split(read(t, dir, "s.ckpt"), []byte("\n"))
		if json.Unmarshal(lines[1], &rec) != nil || json.Unmarshal(rec.Extra, &sum) != nil ||
			rec.Task != "fcfs/consecutive" || rec.Point != (sweep.Point{Mechanism: "In-Trns-MM", Pattern: "UN", Load: 0.3, Seed: 1}) ||
			rec.Mechanism != "In-Trns-MM" || rec.Throughput == 0 || rec.Throughput != sum.NetThroughput || rec.AvgLatency != sum.PktLatMean {
			t.Errorf("the study record is not its network point's record:\n%s", lines[1])
		}
	}},
	// Every job is the machine; a trace drains at cycle 24; -measure caps.
	{name: "size-capped", cmds: []string{capped + " -gen-nodes-median 1e11"}, check: summaryIs("peak_running", 1)},
	{name: "drained", cmds: []string{"dfsched -h 2 -generate 3 -gen-arrival 5 -gen-dur-median 10 -gen-dur-sigma 0 -disciplines fcfs -json"}, check: summaryIs("ran_cycles", 25)},
	{name: "measure-capped", cmds: []string{capped + " -measure 300"}, check: summaryIs("ran_cycles", 400)},
	// The rerun pipeline resumes every run, simulates none, writes the same CSVs.
	{name: "resume", cmds: []string{exps + "exp"}, check: func(t *testing.T, dir string, _ [][]byte) {
		first := read(t, dir, "exp/fig2a.csv")
		if stdout, stderr, err := runTool(dir, exps+"exp"); err != nil || !bytes.Contains(stderr, []byte("runs already done")) || !bytes.Contains(stdout, []byte("cache: 0 templates built, 0 fresh + 0 recycled")) {
			t.Fatalf("the rerun ran simulations instead of resuming every run (%v):\n%s%s", err, stdout, stderr)
		}
		if !bytes.Equal(first, read(t, dir, "exp/fig2a.csv")) {
			t.Error("the resumed pipeline changed fig2a.csv")
		}
	}},
	// A probe sample per 200 cycles with its cycle and groups, and trace
	// events with ph, pid and tid.
	{name: "probes-and-trace", cmds: []string{"dfsim -h 2 -warmup 500 -measure 1500 -mechanism Src-RRG -pattern ADVc -load 0.5 -workers 2 -probe-every 200 -probe-out $T/probes.jsonl -trace-out $T/trace.json -trace-sample 64"}, check: func(t *testing.T, dir string, _ [][]byte) {
		samples := bytes.Split(bytes.TrimSpace(read(t, dir, "probes.jsonl")), []byte("\n"))
		var tr struct{ TraceEvents []struct{ Ph, Pid, Tid any } }
		ok := len(samples) == 10 && json.Unmarshal(read(t, dir, "trace.json"), &tr) == nil && len(tr.TraceEvents) > 0
		for _, l := range samples {
			var s struct{ Cycle, Groups json.RawMessage } // groups: a non-empty array of objects
			ok = ok && json.Unmarshal(l, &s) == nil && s.Cycle != nil && bytes.HasPrefix(s.Groups, []byte("[{"))
		}
		for _, e := range tr.TraceEvents {
			ok = ok && e.Ph != nil && e.Pid != nil && e.Tid != nil
		}
		if !ok {
			t.Errorf("want 10 probe samples with cycle and groups, trace events with ph, pid and tid; got %d samples, %d events", len(samples), len(tr.TraceEvents))
		}
	}},
	// The solo and paired runs must not record into the run's tracer: the
	// race build's detector is the check.
	{name: "traced-interference", cmds: []string{"dfsim " + net + " -job name=a,nodes=24,alloc=consecutive -job name=b,nodes=16,alloc=spread -job name=c,nodes=16,alloc=random -interference -interference-matrix -trace-out $T/trace.json"}},
}

// refused is a refusal row named after its tool and message.
func refused(want string, cmds ...string) row {
	tool, _, _ := strings.Cut(cmds[len(cmds)-1], " ")
	return row{name: tool + ": " + want, refuse: want, cmds: cmds}
}

func TestTools(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name+r.golden, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			var outs [][]byte
			for i, line := range r.cmds {
				if strings.HasPrefix(line, "== ") {
					outs = append(outs, []byte(line+"\n"))
					continue
				}
				stdout, stderr, err := runTool(dir, line)
				last := i == len(r.cmds)-1
				if refusal := r.refuse != "" && last; refusal != (err != nil) || refusal && !bytes.Contains(stderr, []byte(r.refuse)) {
					t.Fatalf("%s: exit %v, stderr:\n%s\nwant a refusal: %v %q", line, err, stderr, refusal, r.refuse)
				}
				if last && !bytes.Contains(stderr, []byte(r.stderr)) {
					t.Fatalf("%s: stderr:\n%s\nwant %q", line, stderr, r.stderr)
				}
				outs = append(outs, wallSeconds.ReplaceAll(stdout, nil))
			}
			if r.golden != "" {
				compare(t, dir, r.golden, bytes.Join(outs, nil))
			}
			if r.check != nil {
				r.check(t, dir, outs)
			}
		})
	}
}

// compare holds a golden row's output to testdata/<name>.golden.
func compare(t *testing.T, dir, name string, got []byte) {
	if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.IsDir() {
		csvs, _ := filepath.Glob(filepath.Join(dir, name, "*.csv"))
		got = nil
		for _, f := range csvs {
			got = append(append(got, "== "+filepath.Base(f)+"\n"...), read(t, "", f)...)
		}
	} else if err == nil {
		got = read(t, dir, name)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else if !bytes.Equal(got, read(t, "", path)) {
		t.Errorf("the output differs from %s (go test ./cmd -update rewrites it):\n%s", path, got)
	}
}

// summaryIs checks a field of the one summary dfsched -generate -json printed.
func summaryIs(field string, want float64) func(*testing.T, string, [][]byte) {
	return func(t *testing.T, _ string, outs [][]byte) {
		var sums []map[string]any
		if json.Unmarshal(outs[0], &sums) != nil || len(sums) != 1 || sums[0][field] != want {
			t.Errorf("want one study summary with %s %v, got:\n%s", field, want, outs[0])
		}
	}
}

// TestInterruptedStudy interrupts a -generate study once a point is
// checkpointed (a study that ends first fails): it must exit 130, the rerun
// must restore that point and write an uninterrupted run's output.
func TestInterruptedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("three runs of a 6-point study")
	}
	t.Parallel()
	dir := t.TempDir()
	const study = "dfsched -h 2 -warmup 200 -generate 6000 -gen-arrival 25 -gen-dur-median 200 -disciplines fcfs,backfill,easy -seeds 2"
	fresh := make(chan error, 1)
	go func() { _, _, err := runTool(dir, study+" -checkpoint $T/fresh.ckpt -out $T/fresh.json"); fresh <- err }()
	cmd := command(dir, study+" -checkpoint $T/int.ckpt -out $T/int.json")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	for ck, _ := os.ReadFile(filepath.Join(dir, "int.ckpt")); !bytes.Contains(ck, []byte(`"task"`)); ck, _ = os.ReadFile(filepath.Join(dir, "int.ckpt")) {
		select {
		case err := <-exited:
			t.Fatalf("the study ended (%v) before a point was checkpointed", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var exit *exec.ExitError
	if err := <-exited; !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("the interrupted study exited %v, want exit status 130", err)
	}
	stdout, stderr, err := runTool(dir, study+" -checkpoint $T/int.ckpt -out $T/int.json")
	if err != nil || !regexp.MustCompile(`[1-9][0-9]* restored from checkpoint`).Match(stdout) {
		t.Fatalf("the rerun restored no point (%v):\n%s%s", err, stdout, stderr)
	}
	if err := <-fresh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(t, dir, "int.json"), read(t, dir, "fresh.json")) {
		t.Error("the resumed study's output differs from an uninterrupted run's")
	}
}

// command is a tool command line with $T expanded to dir, its leading
// VAR=value fields added to the tool's environment.
func command(dir, line string) *exec.Cmd {
	args := strings.Fields(strings.ReplaceAll(line, "$T", dir))
	var env []string
	for strings.Contains(args[0], "=") {
		env, args = append(env, args[0]), args[1:]
	}
	cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	return cmd
}

func runTool(dir, line string) (stdout, stderr []byte, err error) {
	var o, e bytes.Buffer
	cmd := command(dir, line)
	cmd.Stdout, cmd.Stderr = &o, &e
	err = cmd.Run()
	return o.Bytes(), e.Bytes(), err
}

func read(t *testing.T, dir, name string) []byte {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
