package surface

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The real tree and the toy module are each loaded once per test binary.
var (
	repo = sync.OnceValues(func() (*module, error) { return loadModule(filepath.Join("..", "..")) })
	toy  = sync.OnceValues(func() (*module, error) { return loadModule(filepath.Join("testdata", "toymod")) })
)

// load returns the module that loader loads, or skips under the race detector:
// the package starts no goroutine, and type-checking the module and the
// standard library from source takes several times as long instrumented.
func load(t *testing.T, loader func() (*module, error)) *module {
	t.Helper()
	if raceEnabled {
		t.Skip("a census starts no goroutine: runs without -race")
	}
	m, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// An entry is one line of the allowlist: category, name, reason.
type entry struct {
	cat, name, reason string
	line              int
}

func readAllowlist(path string) ([]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []entry
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		cols := strings.Split(sc.Text(), "\t")
		if len(cols) != 3 || strings.TrimSpace(cols[2]) == "" {
			return nil, fmt.Errorf("%s:%d: want category<TAB>name<TAB>reason", path, line)
		}
		switch cols[0] {
		case catUnused, catTestOnly, catDoc, catDeterminism:
		default:
			return nil, fmt.Errorf("%s:%d: unknown category %q", path, line, cols[0])
		}
		out = append(out, entry{cols[0], cols[1], cols[2], line})
	}
	return out, sc.Err()
}

// compare matches findings against allowlist entries one to one and
// describes every finding no entry lists and every entry no finding
// matches.
func compare(findings []finding, allow []entry, allowPath string) []string {
	listed := map[[2]string][]entry{}
	for _, e := range allow {
		k := [2]string{e.cat, e.name}
		listed[k] = append(listed[k], e)
	}
	var problems []string
	for _, f := range findings {
		k := [2]string{f.cat, f.name}
		if len(listed[k]) == 0 {
			problems = append(problems, fmt.Sprintf("%s: not in the allowlist: unexport or delete it, or list it with a reason", f))
			continue
		}
		listed[k] = listed[k][1:]
	}
	for _, e := range allow {
		k := [2]string{e.cat, e.name}
		if len(listed[k]) > 0 && listed[k][0] == e {
			listed[k] = listed[k][1:]
			problems = append(problems, fmt.Sprintf("%s:%d: %s %s no longer occurs: delete the line and lower allowlistMax in layout_test.go", allowPath, e.line, e.cat, e.name))
		}
	}
	return problems
}

// TestSurface holds the census of the module to the allowlist, exactly.
func TestSurface(t *testing.T) {
	m := load(t, repo)
	findings, err := m.census()
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/allowlist.txt"
	allow, err := readAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range compare(findings, allow, path) {
		t.Error(p)
	}
}

// TestCISteps checks that every test selection in the CI workflow runs at
// least one test, so a renamed test cannot turn its step into "no tests
// to run".
func TestCISteps(t *testing.T) {
	m := load(t, repo)
	problems, err := m.checkCI(filepath.Join(m.root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCensusToyModule runs the census and the CI check on a module small
// enough to list everything they must find: one unused export, one export
// only another package's tests call, one unresolved doc name, one doc path
// that does not exist, one time.Now in a simulation package and one CI
// pattern that runs nothing. The interface method (T.Step) and the names
// and paths that resolve are not found.
func TestCensusToyModule(t *testing.T) {
	m := load(t, toy)
	findings, err := m.census()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	want := []string{
		"internal/sim/sim.go:6: determinism sim.Stamp:time.Now",
		"README.md:7: doc cmd/toy",
		"README.md:4: doc lib.Missing",
		"internal/lib/lib.go:9: testonly lib.TestOnly",
		"internal/lib/lib.go:7: unused lib.Unused",
	}
	if !slices.Equal(got, want) {
		t.Errorf("census:\n got %q\nwant %q", got, want)
	}

	problems, err := m.checkCI(filepath.Join(m.root, "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	want = []string{`ci.yml:5: -run "TestGone" matches no test in ./internal/sim/`}
	if !slices.Equal(problems, want) {
		t.Errorf("CI check:\n got %q\nwant %q", problems, want)
	}
}

// checkCI reads a workflow file and returns, for each go test -run or
// -fuzz pattern, every |-alternative that matches no Test, Fuzz or
// Example function (Fuzz alone for -fuzz) of the packages its command
// line names. "-run '^$'", which runs nothing on purpose, is skipped.
func (m *module) checkCI(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	var problems []string
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		start, cmd := i+1, lines[i]
		for strings.HasSuffix(strings.TrimSpace(cmd), `\`) && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(strings.TrimSpace(cmd), `\`) + " " + lines[i]
		}
		if !strings.Contains(cmd, "go test") {
			continue
		}
		args := shellWords(cmd[strings.Index(cmd, "go test")+len("go test"):])
		var pkgs []string
		selections := map[string]string{} // flag → pattern
		for j := 0; j < len(args); j++ {
			a := args[j]
			switch {
			case a == "-run" || a == "-fuzz":
				if j+1 < len(args) {
					selections[a] = args[j+1]
					j++
				}
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				f, v, _ := strings.Cut(a, "=")
				selections[f] = v
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		funcs := m.funcsIn(pkgs)
		for _, flag := range []string{"-run", "-fuzz"} {
			pat, ok := selections[flag]
			if !ok || flag == "-run" && pat == "^$" {
				continue
			}
			top, _, _ := strings.Cut(pat, "/") // subtest levels past the first are not checked
			for _, alt := range alternatives(top) {
				re, err := regexp.Compile(alt)
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: %s %q: %v", name, start, flag, alt, err))
					continue
				}
				hit := false
				for _, fn := range funcs {
					if re.MatchString(fn) && (flag == "-run" && !strings.HasPrefix(fn, "Benchmark") || strings.HasPrefix(fn, "Fuzz")) {
						hit = true
						break
					}
				}
				if !hit {
					problems = append(problems, fmt.Sprintf("%s:%d: %s %q matches no test in %s", name, start, flag, alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return problems, nil
}

// funcsIn lists the test functions of the packages that go test package
// arguments (".", "./dir", "./dir/...") name.
func (m *module) funcsIn(args []string) []string {
	var out []string
	for _, a := range args {
		rel := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(a, "."), "/"), "/")
		tree := strings.HasSuffix(rel, "...")
		rel = strings.TrimSuffix(strings.TrimSuffix(rel, "..."), "/")
		want := m.path
		if rel != "" {
			want += "/" + rel
		}
		for path, names := range m.testFuncs {
			if path == want || tree && strings.HasPrefix(path, want+"/") {
				out = append(out, names...)
			}
		}
	}
	return out
}

// alternatives splits a pattern at its top-level | (outside parentheses
// and brackets).
func alternatives(pat string) []string {
	var out []string
	depth, from := 0, 0
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pat[from:i])
				from = i + 1
			}
		}
	}
	return append(out, pat[from:])
}

// shellWords splits a command line into words, honouring single and
// double quotes; it stops at a shell operator (;, |, &&, ||).
func shellWords(s string) []string {
	var out []string
	var cur strings.Builder
	in, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			if in {
				out = append(out, cur.String())
				cur.Reset()
				in = false
			}
		case c == ';' || c == '|' || c == '&':
			if in {
				out = append(out, cur.String())
			}
			return out
		default:
			cur.WriteByte(c)
			in = true
		}
	}
	if in {
		out = append(out, cur.String())
	}
	return out
}
