// Package surface holds no production code. Its tests census the exported
// surface of the module's internal packages and check the census against
// an exact allowlist (testdata/allowlist.txt): an exported name that no
// other package calls, a name other packages call only from their tests,
// a backticked name or path or a quoted section reference in the
// documents (docFiles) that resolves to nothing, and a wall-clock read or
// goroutine in a simulation package each fail the test unless a line of
// the allowlist names it with a reason. A
// listed entry that no longer occurs fails it too, so the list can only
// shrink as the code does. Over the same loaded module, TestLayout holds
// the repository's layout gates: one row per invariant (a deleted second
// path stays deleted, one site of a kind, a frozen package's line cap, a
// document's headings), each checked on parsed or type-checked code or
// on Markdown prose.
package surface

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// A pkg is one directory of the module: its production files, its
// in-package test files and its external (package x_test) test files,
// each type-checked once.
type pkg struct {
	path, name string
	files      []*ast.File // non-test files
	tests      []*ast.File // _test.go files of the same package
	xtests     []*ast.File // _test.go files of package name_test

	// The files build constraints exclude here (a //go:build line or a
	// _GOOS/_GOARCH name), non-test and test: parsed for the layout rules,
	// which read every Go file, but never type-checked.
	ignored, ignoredTests []*ast.File

	checked bool
	types   *types.Package // files alone: what other packages import
	tTypes  *types.Package // files + tests, checked apart
}

// A module is every package under one root, type-checked with a shared
// record of which identifier refers to which object.
type module struct {
	root, path string
	pkgs       []*pkg // in directory order
	byPath     map[string]*pkg
	info       *types.Info // production files, checked alone
	tinfo      *types.Info // the checks that include test files
	testFile   map[*token.File]bool
	testFuncs  map[string][]string // package path → Test/Fuzz/Benchmark/Example names
}

// The stdlib is type-checked from source once per test binary; the toy
// and real modules share it.
var (
	fset   = token.NewFileSet()
	stdlib = importer.ForCompiler(fset, "source", nil)
)

// loadModule parses and type-checks every package under root. Type errors
// in test files are tolerated (an external test package may see two
// copies of a package type); an error in production code is returned.
func loadModule(root string) (*module, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		root: root, path: modPath,
		byPath:    map[string]*pkg{},
		info:      &types.Info{Uses: map[*ast.Ident]types.Object{}},
		tinfo:     &types.Info{Uses: map[*ast.Ident]types.Object{}},
		testFile:  map[*token.File]bool{},
		testFuncs: map[string][]string{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		p, err := m.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			m.byPath[p.path] = p
			m.pkgs = append(m.pkgs, p)
		}
	}
	for _, p := range m.pkgs {
		if err := m.check(p); err != nil {
			return nil, err
		}
	}
	for _, p := range m.pkgs {
		m.checkTests(p)
	}
	return m, nil
}

func readModulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (m *module) parseDir(dir string) (*pkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: m.path}
	if rel != "." {
		p.path += "/" + filepath.ToSlash(rel)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		f, perr := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, perr
		}
		isTest := strings.HasSuffix(name, "_test.go")
		switch {
		case err != nil || !match:
			if isTest {
				p.ignoredTests = append(p.ignoredTests, f)
			} else {
				p.ignored = append(p.ignored, f)
			}
			continue
		case !isTest:
			p.files = append(p.files, f)
			p.name = f.Name.Name
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		if isTest {
			m.testFile[fset.File(f.Pos())] = true
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && isTestFunc(fd.Name.Name) {
					m.testFuncs[p.path] = append(m.testFuncs[p.path], fd.Name.Name)
				}
			}
		}
	}
	if len(p.files) == 0 && len(p.tests) == 0 && len(p.xtests) == 0 && len(p.ignored) == 0 && len(p.ignoredTests) == 0 {
		return nil, nil
	}
	if p.name == "" && len(p.tests) > 0 {
		p.name = p.tests[0].Name.Name
	}
	return p, nil
}

func isTestFunc(name string) bool {
	for _, pre := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

// importerFunc resolves module paths to the checked production packages
// (or, for an external test package, its own package with its tests) and
// everything else to the stdlib.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (m *module) importer(self *pkg) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if self != nil && path == self.path {
			return self.tTypes, nil
		}
		if q := m.byPath[path]; q != nil {
			if err := m.check(q); err != nil {
				return nil, err
			}
			if q.types == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return q.types, nil
		}
		return stdlib.Import(path)
	})
}

// check type-checks a package's production files once, checking the
// module packages it imports first.
func (m *module) check(p *pkg) error {
	if p.checked || len(p.files) == 0 {
		return nil
	}
	p.checked = true
	conf := types.Config{Importer: m.importer(nil)}
	var err error
	p.types, err = conf.Check(p.path, fset, p.files, m.info)
	return err
}

// checkTests checks a package's test files once every production package
// is checked, since a test may import a package that imports its own.
func (m *module) checkTests(p *pkg) {
	if len(p.files) == 0 && len(p.tests) == 0 && len(p.xtests) == 0 {
		return
	}
	tolerant := types.Config{Importer: m.importer(p), Error: func(error) {}}
	if len(p.tests) > 0 || p.types == nil {
		p.tTypes, _ = tolerant.Check(p.path, fset, append(append([]*ast.File(nil), p.files...), p.tests...), m.tinfo)
	} else {
		p.tTypes = p.types
	}
	if len(p.xtests) > 0 {
		tolerant.Check(p.path+"_test", fset, p.xtests, m.tinfo)
	}
}

// pathOf is the package path an object is referenced from, external test
// packages folded into their package.
func pathOf(pk *types.Package) string {
	if pk == nil {
		return ""
	}
	return strings.TrimSuffix(pk.Path(), "_test")
}
