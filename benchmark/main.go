// Command benchmark measures what a run, a sweep, a served job and a
// streamed trace cost in absolute host terms, end to end and layer by
// layer, at the paper's scale. See README.md in this directory.
//
//	go run ./benchmark                       # all workloads, untraced
//	go run ./benchmark -trace                # all workloads, traced twins too
//	go run ./benchmark -workload run_h6_advc_sat -seed 3
//	go run ./benchmark -compare before/ after/
//
// Every layer is measured from outside, by timing calls into exported
// functions of the module's packages; nothing outside this directory
// changes. cmd/dfbench and BENCH_engine.json (engine ratios and
// bit-identity) are a separate, older record and stay as they are.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the size the golden
// digests and every recorded trajectory are taken at.
const defaultSeconds = 15

//go:embed golden.json
var goldenJSON []byte

// result is what one run of one workload writes to its result file.
type result struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Seconds   int           `json:"seconds"`
	Traced    bool          `json:"traced"`
	Env       environment   `json:"environment"`
	Correct   bool          `json:"correct"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	FailRatio float64       `json:"fail_ratio"`
	Digest    string        `json:"digest"`
	Golden    string        `json:"golden"` // match, mismatch, or none for this seed and size
	Failures  []string      `json:"failures,omitempty"`
	Metrics   []metricValue `json:"metrics"`
	// Rounds lists the raw per-round measurements the end-to-end metrics
	// were reduced from.
	Rounds []roundValues `json:"rounds"`
}

// goldenKey names a golden digest: digests depend on the seed and on the
// size -seconds selects.
func goldenKey(workload string, seed uint64, seconds int) string {
	return fmt.Sprintf("%s seed=%d seconds=%d", workload, seed, seconds)
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	workdir  string
	out      string
	golden   string // "": check against the embedded golden.json; else update this file
}

func main() {
	runtime.GOMAXPROCS(procs)
	var o options
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run this workload in this process (default: all, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed, the only workload input")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "size every timed section to about this many seconds on the reference container")
	fs.BoolVar(&o.traced, "trace", false, "also run the traced twin and report the per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", "bench-out", "directory for stores and checkpoints; a private subdirectory is made and removed")
	fs.StringVar(&o.out, "out", "bench-out", "directory for result and trace files")
	fs.StringVar(&o.golden, "update-golden", "", "record the digests into this golden.json instead of checking them")
	fs.BoolVar(&compare, "compare", false, "compare two result files or directories: -compare A B")
	fs.Parse(normalizeArgs(os.Args[1:])) //nolint:errcheck // ExitOnError

	if compare {
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files or directories"))
		}
		ok, err := compareSets(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if fs.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	res, err := runWorkload(w, o, fullSizes(o.seconds))
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, res, o); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// normalizeArgs folds the contract's "--trace 0|1" into the boolean flag's
// "-trace=false|true", so both it and a bare -trace work.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if v, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+strconv.FormatBool(v))
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// runWorkload runs one workload in this process: its own heap, so the
// memory metrics are the workload's.
func runWorkload(w workload, o options, sz sizes) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	workdir, err := os.MkdirTemp(o.workdir, "work-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	env := readEnvironment(workdir)
	c := &runCtx{seed: o.seed, sz: sz, traced: o.traced, workdir: workdir, rec: newRecorder(w.Name)}
	if o.traced {
		c.tr = newTracer(w.Name)
	}
	c.rec.set("bench.loadavg_start", env.LoadAvgStart)
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if o.traced {
		if err := c.tr.write(filepath.Join(o.out, "trace-"+w.Name+".json")); err != nil {
			return nil, err
		}
	}
	for _, name := range c.rec.missing(o.traced) {
		c.rec.op(false, "metric %s was not measured", name)
	}

	res := &result{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Env: env,
		Digest: c.digest, Golden: "none",
	}
	key := goldenKey(w.Name, o.seed, o.seconds)
	if o.golden != "" {
		if err := updateGolden(o.golden, key, c.digest); err != nil {
			return nil, err
		}
	} else {
		var golden map[string]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
		if want, ok := golden[key]; ok {
			res.Golden = "match"
			if !c.rec.op(want == c.digest, "digest %s differs from golden %s", c.digest, want) {
				res.Golden = "mismatch"
			}
		}
	}
	res.Attempted, res.Failed, res.Failures = c.rec.attempted, c.rec.failed, c.rec.failures
	res.Correct = res.Failed == 0
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.Metrics = c.rec.sorted()
	res.Rounds = c.rounds
	return res, nil
}

func updateGolden(path, key, digest string) error {
	golden := make(map[string]string)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	golden[key] = digest
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// emit prints one line per metric, writes the result file, and ends
// with the one-line JSON object the benchmark contract reads.
func emit(w io.Writer, res *result, o options) error {
	e := res.Env
	fmt.Fprintf(w, "%s env nproc=%d gomaxprocs=%d go=%s rev=%s loadavg=%.2f fs=%s cpu=%q\n",
		res.Workload, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.VCSRevision, e.LoadAvgStart, e.WorkDirFS, e.CPUModel)
	for _, m := range res.Metrics {
		line := fmt.Sprintf("%s %s %s %s", res.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Exact {
			line += " exact"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s fail_ratio %g ratio (%d of %d operations)\n", res.Workload, res.FailRatio, res.Failed, res.Attempted)
	fmt.Fprintf(w, "%s digest %s golden=%s\n", res.Workload, res.Digest, res.Golden)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", res.Workload, f)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", res.Workload, res.Seed, b2i(res.Traced))
	if err := os.WriteFile(filepath.Join(o.out, name), append(data, '\n'), 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": contractMetrics(res.Metrics, res.Traced),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload, each in a child process of this binary, and
// returns the exit code: non-zero when any workload failed a check.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
			"-trace=" + strconv.FormatBool(o.traced), "-workdir", o.workdir, "-out", o.out,
		}
		if o.golden != "" {
			args = append(args, "-update-golden", o.golden)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}
