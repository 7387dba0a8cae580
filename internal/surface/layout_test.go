package surface

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"iter"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The caps of the freeze rules. Lower a cap when you delete; never raise
// it.
const (
	// oracleMax caps internal/refmodel's non-test lines: the oracle is
	// delete-only.
	oracleMax = 1517
	// allowlistMax caps testdata/allowlist.txt: the surface of internal/
	// only shrinks, so unexport or delete instead of listing.
	allowlistMax = 70
)

// layout is the repository's layout gates, one rule per invariant. Each
// keeps a deleted second path deleted, counts the one site of a kind, caps
// a frozen package or reads a document's titles; every check of Go reads
// parsed or type-checked code, so a name in a comment does not trip it and
// a name in code does not escape it.
var layout = []rule{
	{"refmodel-imports", "one router state layout: the dense oracle is test support, so nothing that ships may link it",
		noImport("internal/refmodel")},
	{"two-layout-glue", "the glue that translated between the two router layouts stays deleted",
		forbid(scope{out: []string{"internal/refmodel"}},
			ident(`WriteBack|importRouter|coreLive|beginCore|endCore|RingLinks|PortLinkIndex|CloneRouters`))},
	{"multi-run-forks", "one run description, one batch per pipeline, one lease runner: the second flags-to-config assembly, the pool's priorities and cross-batch limit and the daemon's private lease loop stay deleted",
		forbid(scope{in: []string{"cmd", "internal", "dragonfly.go"}},
			ident(`CommonFlags|NewLimit|^Priority$|RunCtx|runLocal`), keyed(`\bRunOpts$`, `Priority`))},
	{"one-budget", "parallelism has one budget, GOMAXPROCS: nothing that ships outside the frozen oracle reads the CPU count, and no tool but dfserved's worker registers a flag that bounds concurrent simulations",
		all(forbid(scope{in: []string{"cmd", "internal", "dragonfly.go"}, out: []string{"internal/refmodel"}}, expr[*ast.SelectorExpr](`^runtime\.NumCPU$`)),
			forbid(scope{in: []string{"cmd"}, out: []string{"cmd/dfserved"}}, expr[*ast.BasicLit](`^"(jobs|seed-jobs|interference-jobs)"$`)))},
	{"one-fan-out", "a fan-out is one call: outside internal/sweep, independent runs go through sweep.Map, Grid.Run or RestoreOrRun, which derive the bound, and no caller hand-writes a pool loop (internal/serve keeps its lease runner's until the service is retired)",
		forbid(scope{in: []string{"cmd", "internal", "dragonfly.go"}, out: []string{"internal/sweep", "internal/serve"}}, expr[*ast.SelectorExpr](`^sweep\.Shared$`))},
	{"renew-ticker", "one lease runner: serve/runner.go owns the only lease renew ticker",
		all(forbid(scope{in: []string{"cmd", "internal"}, out: []string{"internal/serve/runner.go"}}, expr[*ast.BinaryExpr](`ttl ?/ ?3`)),
			exactly(1, scope{in: []string{"internal/serve/runner.go"}}, expr[*ast.BinaryExpr](`ttl ?/ ?3`)))},
	{"oracle-transport", "one oracle transport: the event links, the transport axis and the event-sink path stay out of the oracle",
		forbid(scope{in: []string{"internal/refmodel"}, of: prodFiles | testFiles},
			ident(`EventLink|LinkKind|SetEventSink|EarliestExternal`), funcDecl(`^func \(\*?Router\) PushDue$`))},
	{"oracle-transport-axis", "one oracle transport: the test matrix has no transport axis",
		forbid(scope{of: prodFiles | testFiles}, ident(`oracleEvents`), expr[*ast.SelectorExpr](`refmodel\.(Rings|Events)`))},
	{"wake-calendar", "one wake array: the per-group wake heaps, the active set and the scheduler type stay deleted from the engine",
		forbid(scope{in: []string{"internal/sim"}}, ident(`heaps|sleepUntil|wakeDue|nActive|routerBits`))},
	{"wake-calendar-file", "one wake array: the engine's schedule file stays deleted",
		absent("internal/sim/schedule.go")},
	{"phase-flags", "phases come from the cycle number: the broadcast phase flags (and the window cuts they forced) stay out of the driver and the core",
		forbid(scope{in: []string{"internal/sim", "internal/router"}}, ident(`SetMeasuring|SetBatch`))},
	{"eager-wake", "routers wake for work, not bookkeeping: the forced step at a controller event and the eager credit pop (whose panic message this is) stay out of the engine and the core",
		forbid(scope{in: []string{"internal/sim", "internal/router"}},
			expr[*ast.CallExpr](`wake\(r, 0\)$`), expr[*ast.BasicLit](`credit event missed at cycle`))},
	{"one-credit-add", "a credit is added in one place: Core.Settle and a full ring's PushDue apply credits through the one credit pop",
		exactly(1, scope{in: []string{"internal/router"}}, assign(`credits \+= int32\(\w+\.size\)`))},
	{"one-apply", "one scheduler event loop: trace sources and sinks plug into the one Apply",
		exactly(1, scope{in: []string{"internal/scheduler"}}, funcDecl(`^func \(.+\) Apply$`))},
	{"scheduler-forks", "one scheduler event loop: the replay/streaming controller fork and the free-function twins of the planScratch methods stay deleted",
		forbid(scope{in: []string{"internal/scheduler"}}, ident(`genController`), funcDecl(`^func (planStarts|shadowTime)$`))},
	{"scheduler-fork-file", "one scheduler event loop: the controller fork's file stays deleted",
		absent("internal/scheduler/controller.go")},
	{"study-knobs", "one heap measure, one cycle cap: the study's retained-heap option and its -gen-mem and -gen-max-cycles flags stay deleted (TestStreamMemoryFlat measures the heap; -measure caps a generated run)",
		forbid(scope{in: []string{"cmd", "internal"}, of: prodFiles | testFiles},
			ident(`StreamOptions|RunGeneratedOpts|RetainedBytes|MeasureRetained`), expr[*ast.BasicLit]("^[\"`]gen-(mem|max-cycles)[\"`]$"))},
	{"oracle-frozen", "the oracle is delete-only: its non-test lines never exceed oracleMax",
		maxLines("internal/refmodel", oracleMax)},
	{"allowlist-shrinks", "the surface of internal/ only shrinks: the allowlist never exceeds allowlistMax",
		maxLines("internal/surface/testdata/allowlist.txt", allowlistMax)},
	{"packet-arenas", "a network is its state: the packet ring arenas and a per-router allocator scratch on the Core stay deleted",
		forbid(scope{in: []string{"internal/router"}},
			ident(`inQData|outQData|arrData`), expr[*ast.SelectorExpr](`\bc\.(cand|candIn|candInN|outCand|outCandN|outTouched)\b`))},
	{"tenancy-mirror", "one tenancy map: the network borrows the workload's node→job map, so the mirror call stays deleted",
		forbid(scope{}, ident(`SetNodeJob`))},
	{"tenancy-map", "one tenancy map: internal/sim allocates no node→job map of its own",
		forbid(scope{in: []string{"internal/sim"}}, assign(`nodeJob :?= (make|append)\(`))},
	{"second-paths", "one body per sweep point, one Section III app traffic, no dead endpoint: the cold-run mode, the app-pattern twin and the probe feed stay deleted",
		forbid(scope{}, ident(`ReuseOff|RunWithAppPattern|AppUniform|ProbeSample`))},
	{"result-copies", "a result keeps what gets reported: the per-router accumulator copies stay deleted; the accumulators live in the fabric",
		forbid(scope{}, ident(`\bPerRouter`))},
	{"grid-tools", "one grid tool: the fairness and breakdown reports are dfsweep -report fair|breakdown",
		absent("cmd/dffair", "cmd/dfbreakdown")},
	{"single-run-tools", "one single-run tool: multi-job workloads are dfsim -job|-spec",
		absent("cmd/dfworkload")},
	{"warm-reuse", "one snapshot reuse: the cross-load warm reuse and its re-warm tail stay deleted",
		forbid(scope{in: []string{"cmd", "internal"}}, ident(`ReuseWarm|ReWarm|rewarmTail|ParseReuse`))},
	{"state-comparers", "one fabric comparison: the per-test state comparers stay deleted",
		forbid(scope{in: []string{"internal"}, of: prodFiles | testFiles}, ident(`diffState|captureState`))},
	{"state-readers", "one fabric comparison: no internal/sim test but fabricdiff_test.go reads a state vector",
		forbid(scope{in: []string{"internal/sim"}, out: []string{"internal/sim/fabricdiff_test.go"}, of: testFiles}, ident(`StateVector$`))},
	{"claims-runs", "one claims table: paper_test.go simulates only inside the memo",
		callsOnlyInside("internal/sim/paper_test.go", "internal/sim", `^Run(Workload)?$`, "runSet", "get")},
	{"claims-tests", "one claims table: the per-claim test functions TestPaperClaims replaced stay deleted",
		forbid(scope{in: []string{"internal/sim"}, of: prodFiles | testFiles},
			ident(`Test(MINThroughputBoundADVc?|ValiantLiftsAdversarialThroughput|UNLatencyOrdering|ADVcUnfairnessWithPriority|ADVcFairnessWithoutPriority|PriorityDegradesFairness|AgeArbitrationRestoresFairness|ObliviousInsensitiveToPriority|BreakdownShape|PriorityBenignUnderUN|AppAllocationCreatesADVc|SimulatorMatchesAnalyticCeilings)\b`))},
	{"oracle-scenarios", "one engine-vs-oracle runner: the per-test scenario types and drivers stay deleted",
		forbid(scope{in: []string{"internal/sim"}, of: prodFiles | testFiles},
			ident(`^(statePropTrial|randomTrial|runPrefix|snapTrial|randomSnapTrial|prefixConfig|runRef|probedCfg)$`))},
	{"pb-readers", "PB bits are read through their capture",
		forbid(scope{in: []string{"internal/sim"}, out: []string{"internal/sim/pb.go", "internal/sim/probes.go", "internal/sim/snapshot.go"}, of: prodFiles | testFiles},
			expr[*ast.SelectorExpr](`\.bits$`))},
	{"examples", "an example is an Example that tier-1 compares",
		absent("examples")},
	{"tool-checks", "the tools are checked by go test: cmd/tools_test.go holds their golden outputs, refusals and smokes, so the shell script it replaced stays deleted",
		absent("cmd/testdata/golden.sh")},
	{"diary-headings", "the documents describe the tree as it is: no heading or bold lead of EXPERIMENTS.md or DESIGN.md names a PR, whose CHANGES.md entry is its record",
		noTitle(`\bPR \d+`, "EXPERIMENTS.md", "DESIGN.md")},
	{"readme", "the documentation contract: README.md exists and is not empty",
		nonEmpty("README.md")},
	{"package-docs", "go doc is the system map: every internal/* package has a // Package comment",
		packageDocs("internal")},
}

// TestLayout holds the module to the layout table.
func TestLayout(t *testing.T) {
	m := load(t, repo)
	for _, r := range layout {
		t.Run(r.name, func(t *testing.T) {
			for _, p := range r.check(m) {
				t.Errorf("%s\n\t(%s)", p, r.why)
			}
		})
	}
}

// TestLayoutToyModule runs one rule of each kind on the toy module, where
// each finds exactly what it must: a production import of the oracle, a
// forbidden identifier (declared and used), a forbidden selector, a
// forbidden literal key, a forbidden allocation, a second Apply, a present
// file, a missing file, a package over its line cap, a package without a
// package comment, a call outside the memo, and a heading and a bold lead
// that match (running text that does is not found). Two files the build
// constraints exclude (legacy_ignored.go, stamp_ignored_test.go) are read
// like any other: an identifier, the line cap and a call find them.
func TestLayoutToyModule(t *testing.T) {
	m := load(t, toy)
	rules := []rule{
		{"import", "", noImport("internal/oracle")},
		{"ident", "", forbid(scope{}, ident(`writeBack`))},
		{"expr", "", forbid(scope{}, expr[*ast.SelectorExpr](`\bc\.cand\b`))},
		{"keyed", "", forbid(scope{}, keyed(`\bopts$`, `prio`))},
		{"assign", "", forbid(scope{}, assign(`nodeJob :?= (make|append)\(`))},
		{"exactly", "", exactly(1, scope{in: []string{"internal/legacy"}}, funcDecl(`^func \(.+\) Apply$`))},
		{"absent", "", absent("internal/sim/schedule.go")},
		{"nonEmpty", "", nonEmpty("NOTES.md")},
		{"maxLines", "", maxLines("internal/legacy", 10)},
		{"packageDocs", "", packageDocs("internal")},
		{"callsOnlyInside", "", callsOnlyInside("internal/sim", "internal/sim", `^Stamp$`, "memo", "get")},
		{"noTitle", "", noTitle(`\bdraft \d+`, "DESIGN.md")},
	}
	var got []string
	for _, r := range rules {
		for _, p := range r.check(m) {
			got = append(got, r.name+": "+p)
		}
	}
	want := []string{
		"import: toy imports toy/internal/oracle",
		"ident: internal/legacy/legacy.go:6: writeBack",
		"ident: internal/legacy/legacy.go:20: writeBack",
		"ident: internal/legacy/legacy_ignored.go:8: writeBack",
		"expr: internal/legacy/legacy.go:20: c.cand",
		"keyed: internal/legacy/legacy.go:26: opts{prio: …}",
		"assign: internal/legacy/legacy.go:20: nodeJob := make([]int32, len(c.cand) + writeBack())",
		"exactly: 2 sites, want 1: internal/legacy/legacy.go:14: func (a) Apply; internal/legacy/legacy.go:15: func (b) Apply",
		"absent: internal/sim/schedule.go is present",
		"nonEmpty: NOTES.md is missing or empty",
		"maxLines: internal/legacy has 34 non-test lines, more than 10",
		"packageDocs: internal/legacy has no // Package legacy comment",
		"callsOnlyInside: internal/sim/sim_test.go:10: Stamp() outside (memo).get",
		"callsOnlyInside: internal/sim/stamp_ignored_test.go:5: Stamp() outside (memo).get",
		`noTitle: DESIGN.md:3: "Time windows (draft 7)"`,
		`noTitle: DESIGN.md:7: "Recycling is by capacity (draft 9)."`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("layout:\n got %q\nwant %q", got, want)
	}
}

// A rule is one layout gate: a name, the invariant it keeps, and a check
// that describes every way the module breaks it.
type rule struct {
	name, why string
	check     func(m *module) []string
}

// The kinds of file a scope reads.
const (
	prodFiles = 1 << iota // non-test files
	testFiles             // _test.go files
)

// A scope selects the Go files of the module a rule reads by
// module-relative path: those under one of in (all, if in is empty) and
// under none of out, of the kinds of (production files, if of is 0).
// "Under" a path is the path itself or anything in its directory tree.
// Files that build constraints exclude are read too.
type scope struct {
	in, out []string
	of      int
}

func under(rel string, paths []string) bool {
	for _, p := range paths {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// files yields the module-relative path and syntax of each file s selects.
func (m *module) files(s scope) iter.Seq2[string, *ast.File] {
	of := s.of
	if of == 0 {
		of = prodFiles
	}
	return func(yield func(string, *ast.File) bool) {
		for _, p := range m.pkgs {
			var fs []*ast.File
			if of&prodFiles != 0 {
				fs = append(append(fs, p.files...), p.ignored...)
			}
			if of&testFiles != 0 {
				fs = slices.Concat(fs, p.tests, p.xtests, p.ignoredTests)
			}
			for _, f := range fs {
				rel := m.position(f.Pos()).Filename
				if (len(s.in) == 0 || under(rel, s.in)) && !under(rel, s.out) && !yield(rel, f) {
					return
				}
			}
		}
	}
}

// A matcher says what a node is, if it is what a rule looks for, and ""
// if not.
type matcher func(n ast.Node) string

// ident matches an identifier, declared or used, by its name.
func ident(re string) matcher {
	r := regexp.MustCompile(re)
	return func(n ast.Node) string {
		if id, ok := n.(*ast.Ident); ok && r.MatchString(id.Name) {
			return id.Name
		}
		return ""
	}
}

// expr matches an expression of type T as go/types prints it.
func expr[T ast.Expr](re string) matcher {
	r := regexp.MustCompile(re)
	return func(n ast.Node) string {
		if e, ok := n.(T); ok {
			if s := types.ExprString(e); r.MatchString(s) {
				return s
			}
		}
		return ""
	}
}

// funcDecl matches a function declaration, printed "func Name" or
// "func (Recv) Name".
func funcDecl(re string) matcher {
	r := regexp.MustCompile(re)
	return func(n ast.Node) string {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return ""
		}
		s := "func " + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			s = "func (" + types.ExprString(fd.Recv.List[0].Type) + ") " + fd.Name.Name
		}
		if r.MatchString(s) {
			return s
		}
		return ""
	}
}

// keyed matches a composite literal whose type, as go/types prints it,
// matches typ and one of whose keys matches key, printed "T{key: …}".
func keyed(typ, key string) matcher {
	rt, rk := regexp.MustCompile(typ), regexp.MustCompile(key)
	return func(n ast.Node) string {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || lit.Type == nil || !rt.MatchString(types.ExprString(lit.Type)) {
			return ""
		}
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok && rk.MatchString(types.ExprString(kv.Key)) {
				return types.ExprString(lit.Type) + "{" + types.ExprString(kv.Key) + ": …}"
			}
		}
		return ""
	}
}

// assign matches an assignment or a var declaration, printed "lhs op rhs"
// for each operand pair (whole, when a call returns several values).
func assign(re string) matcher {
	r := regexp.MustCompile(re)
	return func(n ast.Node) string {
		var lhs, rhs []ast.Expr
		op := "="
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhs, rhs, op = n.Lhs, n.Rhs, n.Tok.String()
		case *ast.ValueSpec:
			for _, id := range n.Names {
				lhs = append(lhs, id)
			}
			rhs = n.Values
		default:
			return ""
		}
		pairs := [][2][]ast.Expr{{lhs, rhs}}
		if len(lhs) == len(rhs) {
			pairs = pairs[:0]
			for i := range lhs {
				pairs = append(pairs, [2][]ast.Expr{lhs[i : i+1], rhs[i : i+1]})
			}
		}
		for _, p := range pairs {
			if s := exprList(p[0]) + " " + op + " " + exprList(p[1]); r.MatchString(s) {
				return s
			}
		}
		return ""
	}
}

func exprList(es []ast.Expr) string {
	var s []string
	for _, e := range es {
		s = append(s, types.ExprString(e))
	}
	return strings.Join(s, ", ")
}

// sites lists, as "path:line: what", every node of s's files that one of
// match matches. A matched node's children are not searched.
func (m *module) sites(s scope, match []matcher) []string {
	var out []string
	for rel, f := range m.files(s) {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			for _, mt := range match {
				if what := mt(n); what != "" {
					out = append(out, fmt.Sprintf("%s:%d: %s", rel, fset.Position(n.Pos()).Line, what))
					return false
				}
			}
			return true
		})
	}
	return out
}

// forbid fails every site in s that one of match matches.
func forbid(s scope, match ...matcher) func(*module) []string {
	return func(m *module) []string { return m.sites(s, match) }
}

// exactly fails unless s holds exactly n sites that match matches.
func exactly(n int, s scope, match matcher) func(*module) []string {
	return func(m *module) []string {
		if got := m.sites(s, []matcher{match}); len(got) != n {
			return []string{fmt.Sprintf("%d sites, want %d: %s", len(got), n, strings.Join(got, "; "))}
		}
		return nil
	}
}

// all fails wherever one of checks fails.
func all(checks ...func(*module) []string) func(*module) []string {
	return func(m *module) []string {
		var out []string
		for _, c := range checks {
			out = append(out, c(m)...)
		}
		return out
	}
}

// noImport fails every production package of the module but target
// itself that imports target, directly or through other packages of the
// module.
func noImport(target string) func(*module) []string {
	return func(m *module) []string {
		want := m.path + "/" + target
		// via maps a package to its import that leads to target ("" when
		// none does).
		via := map[*types.Package]string{}
		var reach func(pk *types.Package) string
		reach = func(pk *types.Package) string {
			if v, seen := via[pk]; seen {
				return v
			}
			via[pk] = ""
			for _, imp := range pk.Imports() {
				if imp.Path() == want || strings.HasPrefix(imp.Path(), m.path+"/") && reach(imp) != "" {
					via[pk] = imp.Path()
					break
				}
			}
			return via[pk]
		}
		var out []string
		for _, p := range m.pkgs {
			if p.types == nil || p.path == want {
				continue
			}
			switch v := reach(p.types); v {
			case "":
			case want:
				out = append(out, fmt.Sprintf("%s imports %s", p.path, want))
			default:
				out = append(out, fmt.Sprintf("%s imports %s through %s", p.path, want, v))
			}
		}
		return out
	}
}

// absent fails for each of paths (module-relative) that exists.
func absent(paths ...string) func(*module) []string {
	return func(m *module) []string {
		var out []string
		for _, p := range paths {
			if _, err := os.Stat(filepath.Join(m.root, p)); err == nil {
				out = append(out, p+" is present")
			}
		}
		return out
	}
}

// nonEmpty fails unless path (module-relative) exists and is not empty.
func nonEmpty(path string) func(*module) []string {
	return func(m *module) []string {
		if st, err := os.Stat(filepath.Join(m.root, path)); err != nil || st.Size() == 0 {
			return []string{path + " is missing or empty"}
		}
		return nil
	}
}

// maxLines fails when path, a directory (its non-test Go files, whatever
// their build constraints) or a file, holds more than max lines, counted
// as newline bytes.
func maxLines(path string, max int) func(*module) []string {
	return func(m *module) []string {
		names, what := []string{filepath.Join(m.root, path)}, "lines"
		if st, err := os.Stat(names[0]); err == nil && st.IsDir() {
			gos, err := filepath.Glob(filepath.Join(names[0], "*.go"))
			if err != nil {
				return []string{err.Error()}
			}
			names, what = nil, "non-test lines"
			for _, n := range gos {
				if !strings.HasSuffix(n, "_test.go") {
					names = append(names, n)
				}
			}
		}
		lines := 0
		for _, n := range names {
			data, err := os.ReadFile(n)
			if err != nil {
				return []string{err.Error()}
			}
			lines += bytes.Count(data, []byte("\n"))
		}
		if lines > max {
			return []string{fmt.Sprintf("%s has %d %s, more than %d", path, lines, what, max)}
		}
		return nil
	}
}

// packageDocs fails every directory directly under dir (module-relative)
// none of whose Go files, tests and constraint-excluded files included, has a doc comment line
// "// Package name" above its package clause, name being the directory's.
func packageDocs(dir string) func(*module) []string {
	return func(m *module) []string {
		ents, err := os.ReadDir(filepath.Join(m.root, dir))
		if err != nil {
			return []string{err.Error()}
		}
		var out []string
		for _, e := range ents {
			if !e.IsDir() {
				continue
			}
			name, documented := e.Name(), false
			if p := m.byPath[m.path+"/"+dir+"/"+name]; p != nil {
				for _, f := range slices.Concat(p.files, p.tests, p.xtests, p.ignored, p.ignoredTests) {
					if f.Doc == nil {
						continue
					}
					for _, c := range f.Doc.List {
						rest, ok := strings.CutPrefix(c.Text, "// Package "+name)
						documented = documented || ok && (rest == "" || rest[0] == ' ')
					}
				}
			}
			if !documented {
				out = append(out, fmt.Sprintf("%s/%s has no // Package %s comment", dir, name, name))
			}
		}
		return out
	}
}

// callsOnlyInside fails every call in the files under path
// (module-relative) to a function of package pkg (module-relative) whose
// name matches re, made outside the method recv.method. A bare call by that name counts even
// when it does not resolve.
func callsOnlyInside(path, pkg, re, recv, method string) func(*module) []string {
	r := regexp.MustCompile(re)
	return func(m *module) []string {
		var out []string
		for rel, f := range m.files(scope{in: []string{path}, of: prodFiles | testFiles}) {
			for _, d := range f.Decls {
				if declName(d) == recv+"."+method {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					var id *ast.Ident
					switch fn := call.Fun.(type) {
					case *ast.Ident:
						id = fn
					case *ast.SelectorExpr:
						id = fn.Sel
					}
					if id == nil || !r.MatchString(id.Name) {
						return true
					}
					obj, _ := m.tinfo.Uses[id].(*types.Func)
					if obj == nil {
						obj, _ = m.info.Uses[id].(*types.Func)
					}
					bare := call.Fun == ast.Expr(id)
					if bare || obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == m.path+"/"+pkg && obj.Type().(*types.Signature).Recv() == nil {
						out = append(out, fmt.Sprintf("%s:%d: %s() outside (%s).%s", rel, fset.Position(call.Pos()).Line, id.Name, recv, method))
					}
					return true
				})
			}
		}
		return out
	}
}
