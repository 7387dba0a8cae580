package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// loadResults reads one result file, or every result-*.json of a directory.
func loadResults(path string) ([]result, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	var out []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result file", path)
	}
	return out, nil
}

// compareSets prints, per workload and end-to-end metric, the median and
// quartiles of each side and a verdict, and checks every exact metric for
// equality. It reports false on any regressed cell, exact mismatch or
// incorrect run. A is the baseline; for all end-to-end metrics lower is
// better.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true

	values := func(rs []result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if r.Workload != workload {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == metric {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

	fmt.Fprintf(w, "%-16s %-12s %3s %30s %3s %30s %8s  %s\n", "workload", "metric", "nA", "A median [q1, q3]", "nB", "B median [q1, q3]", "change", "verdict")
	for _, wl := range workloads {
		for _, d := range catalog {
			if !d.endToEnd() {
				continue
			}
			xa, xb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			change := b2/a2 - 1
			verdict := "ok"
			switch {
			case change > d.Bound:
				verdict = "regressed"
				ok = false
			case (a3-a1)/a2 > d.Bound || (b3-b1)/b2 > d.Bound:
				verdict = "unresolved" // the spread is wider than the bound
			}
			fmt.Fprintf(w, "%-16s %-12s %3d %30s %3d %30s %+7.1f%%  %s\n", wl.Name, d.Name,
				len(xa), fmt.Sprintf("%s [%s, %s]", num(a2), num(a1), num(a3)),
				len(xb), fmt.Sprintf("%s [%s, %s]", num(b2), num(b1), num(b3)), change*100, verdict)
		}
	}

	// Exact metrics and digests depend on the inputs, so they are compared
	// among the runs that share workload, seed and size.
	seen := make(map[string]string)
	var mismatches []string
	for _, r := range append(append([]result(nil), a...), b...) {
		if !r.Correct {
			ok = false
			fmt.Fprintf(w, "%s seed %d: run was not correct: %s\n", r.Workload, r.Seed, strings.Join(r.Failures, "; "))
		}
		key := goldenKey(r.Workload, r.Seed, r.Seconds)
		exact := map[string]string{"digest": r.Digest}
		for _, m := range r.Metrics {
			if m.Exact {
				exact[m.Name] = strconv.FormatFloat(m.Value, 'g', -1, 64)
			}
		}
		for name, v := range exact {
			k := key + " " + name
			if prev, dup := seen[k]; dup && prev != v {
				mismatches = append(mismatches, fmt.Sprintf("%s: %s != %s", k, prev, v))
			}
			seen[k] = v
		}
	}
	sort.Strings(mismatches)
	for _, m := range mismatches {
		ok = false
		fmt.Fprintln(w, "exact mismatch:", m)
	}
	fmt.Fprintf(w, "exact metrics and digests: %d compared, %d mismatches\n", len(seen), len(mismatches))
	return ok, nil
}
