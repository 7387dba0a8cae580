// dfworkload runs a multi-job workload: several applications placed on the
// machine by a scheduler, each with its own size, allocation policy
// (consecutive groups, random routers, group-spread), intra-job traffic
// pattern and phase schedule. It reports the global metrics plus per-job
// throughput, latency and intra-job fairness, and optionally the inter-job
// interference (each job's latency in the mix vs. the same placement
// running alone).
//
// Usage:
//
//	dfworkload                                  # the Section III degenerate case
//	dfworkload -job name=a,nodes=72,alloc=consecutive \
//	           -job name=b,nodes=72,alloc=spread -interference
//	dfworkload -spec workload.json -json
//
// The compact -job syntax: name=a,nodes=72,alloc=spread,first=0,pattern=UN,
// load=0.3,phase=bursty,period=600,duty=0.5 (switch phases:
// phase=switch,period=500,patterns=UN/SHIFT+1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dragonfly"
	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// jobFlags collects repeated -job flags.
type jobFlags []workload.JobSpec

func (j *jobFlags) String() string { return fmt.Sprintf("%d jobs", len(*j)) }

func (j *jobFlags) Set(s string) error {
	js, err := workload.ParseJob(s)
	if err != nil {
		return err
	}
	*j = append(*j, js)
	return nil
}

func main() {
	fs := flag.NewFlagSet("dfworkload", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	mech := fs.String("mechanism", "In-Trns-MM", "routing mechanism: "+strings.Join(routing.Names(), ", "))
	load := fs.Float64("load", 0.3, "default offered load for jobs without their own (phits/node/cycle)")
	specPath := fs.String("spec", "", "read the workload spec from this JSON file")
	var jobs jobFlags
	fs.Var(&jobs, "job", "add one job (repeatable): name=a,nodes=72,alloc=spread,pattern=UN,...")
	interf := fs.Bool("interference", false, "also run every job solo and report mixed/solo latency ratios")
	matrix := fs.Bool("interference-matrix", false,
		"also run the N×N solo-vs-paired interference matrix (N+N·(N-1)/2 extra runs on a worker pool)")
	interfJobs := fs.Int("interference-jobs", 0,
		"concurrent interference simulations — solo baselines and matrix pairs (0 = NumCPU)")
	group := fs.Int("group", 0, "group whose per-router injections to print")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	attachProbes := cli.ProbeFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	cfg, err := build([]string{*mech}, nil)
	if err != nil {
		fatal(err)
	}
	if *group < 0 || *group >= cfg.Topology.Groups() {
		fatal(fmt.Errorf("-group %d out of range [0,%d)", *group, cfg.Topology.Groups()))
	}
	cfg.Mechanism = *mech
	cfg.Load = *load

	spec, err := buildSpec(cfg, *specPath, jobs)
	if err != nil {
		fatal(err)
	}
	wl, err := workload.Compile(topology.New(cfg.Topology), spec, cfg.Seed)
	if err != nil {
		fatal(err)
	}
	probeClose, err := attachProbes(&cfg)
	if err != nil {
		fatal(err)
	}
	res, err := sim.RunWithPattern(cfg, wl)
	if err != nil {
		fatal(err)
	}
	if err := probeClose(); err != nil {
		fatal(err)
	}
	// A probe recorder belongs to exactly one run: the solo/interference
	// baselines below run unprobed.
	cfg.Probes = nil

	// Both interference metrics divide by the same solo baselines, so the
	// N solo runs are paid once even when both flags are set.
	var ratios []float64
	var interfMatrix [][]float64
	if *interf || *matrix {
		solo, err := dragonfly.JobSoloLatencies(cfg, wl, *interfJobs)
		if err != nil {
			fatal(err)
		}
		if *interf {
			ratios = dragonfly.JobInterferenceFromSolo(res, solo)
		}
		if *matrix {
			if interfMatrix, err = dragonfly.JobInterferenceMatrixFromSolo(cfg, wl, solo, *interfJobs); err != nil {
				fatal(err)
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		js := report.NewWorkloadJSON(res, ratios)
		js.InterferenceMatrix = interfMatrix
		if err := enc.Encode(js); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("network:    %v\n", topology.New(cfg.Topology).Params())
	fmt.Printf("mechanism:  %s   workload: %s   arbitration: %v\n",
		res.Mechanism, res.Pattern, cfg.Router.Arbitration)
	for j := 0; j < wl.NumJobs(); j++ {
		fmt.Printf("  job %-10s %s\n", wl.JobName(j), wl.JobDesc(j))
	}
	fmt.Printf("accepted:   %.4f phits/node/cycle (network-wide)\n", res.Throughput())
	fmt.Printf("latency:    %.1f cycles avg, %d p99\n", res.AvgLatency(), res.LatencyQuantile(0.99))
	fmt.Printf("fairness:   %s\n\n", report.FairnessSummary(res.Fairness()))
	fmt.Print(report.JobTable(res, ratios).String())
	if interfMatrix != nil {
		fmt.Printf("\ninterference matrix (paired latency / solo latency):\n")
		fmt.Print(report.InterferenceMatrixTable(res.JobNames, interfMatrix).String())
	}
	fmt.Printf("\ngroup %d injections: %v\n", *group, res.GroupInjections(*group))
}

// buildSpec resolves the workload spec: -spec file, -job flags, or the
// default Section III degenerate case (one job, uniform traffic on h+1
// consecutive groups — the allocation that manufactures ADVc).
func buildSpec(cfg sim.Config, specPath string, jobs jobFlags) (workload.Spec, error) {
	switch {
	case specPath != "" && len(jobs) > 0:
		return workload.Spec{}, fmt.Errorf("use either -spec or -job, not both")
	case specPath != "":
		var spec workload.Spec
		data, err := os.ReadFile(specPath)
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return spec, fmt.Errorf("%s: %w", specPath, err)
		}
		return spec, nil
	case len(jobs) > 0:
		return workload.Spec{Jobs: jobs}, nil
	default:
		return workload.AppSpec(cfg.Topology, 0, cfg.Topology.H+1), nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfworkload:", err)
	os.Exit(1)
}
