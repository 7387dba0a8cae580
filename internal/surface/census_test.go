package surface

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"unicode"
)

// The census's categories, as the allowlist's first column names them.
const (
	catUnused      = "unused"      // no other package refers to it
	catTestOnly    = "testonly"    // other packages refer to it only from tests
	catDoc         = "doc"         // a backticked name or path, or a section reference, in the docs resolves to nothing
	catDeterminism = "determinism" // wall-clock read or goroutine in a simulation package
)

// simPackages are the packages whose results must not depend on the wall
// clock or on goroutine scheduling (DESIGN.md, "Determinism").
var simPackages = []string{"sim", "router", "routing", "topology", "traffic", "workload", "scheduler", "packet", "rng", "stats"}

// docFiles are the documents whose backticked names must resolve: every
// committed document outside benchmark/ but ROADMAP.md, which names
// planned tests, CHANGES.md, the diary of deleted things, and the paper
// notes.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// stdMethods are the methods of the stdlib interfaces a value meets
// without naming them; a method with one of these names is used.
var stdMethods = []string{
	"Error",            // error
	"String",           // fmt.Stringer
	"ServeHTTP",        // http.Handler
	"Set",              // flag.Value
	"Write", "WriteTo", // io.Writer, io.WriterTo
	"MarshalBinary", "UnmarshalBinary", // encoding.Binary(Un)Marshaler
	"MarshalJSON", "UnmarshalJSON", // json.(Un)Marshaler
}

// A finding is one line the census produces.
type finding struct {
	cat, name string
	pos       token.Position // file relative to the module root
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s %s", f.pos.Filename, f.pos.Line, f.cat, f.name)
}

// census lists every finding of the module, sorted.
func (m *module) census() ([]finding, error) {
	out := m.surface()
	out = append(out, m.nondeterminism()...)
	docs, err := m.unresolvedDocNames()
	if err != nil {
		return nil, err
	}
	out = append(out, docs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.cat != b.cat {
			return a.cat < b.cat
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.pos.Line < b.pos.Line
	})
	return out, nil
}

func (m *module) position(p token.Pos) token.Position {
	pos := fset.Position(p)
	if rel, err := filepath.Rel(m.root, pos.Filename); err == nil {
		pos.Filename = filepath.ToSlash(rel)
	}
	return pos
}

// A decl is one exported name of an internal package's surface.
type decl struct {
	name   string // pkg.Ident, pkg.Type.Method or pkg.Type.Field
	pos    token.Pos
	method string // the method's name; "" for anything else
}

// surface lists the exported funcs, types, consts, vars, methods and
// untagged struct fields of internal/* that no other package refers to
// from production code (catUnused), or only from tests (catTestOnly).
func (m *module) surface() []finding {
	decls := map[types.Object]decl{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, m.path+"/internal/") || p.types == nil {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				decls[obj] = decl{name: p.name + "." + n, pos: obj.Pos()}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				if fn := named.Method(i); fn.Exported() {
					decls[fn] = decl{name: p.name + "." + n + "." + fn.Name(), pos: fn.Pos(), method: fn.Name()}
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
						decls[f] = decl{name: p.name + "." + n + "." + f.Name(), pos: f.Pos()}
					}
				}
			}
		}
	}

	owner := map[*token.File]string{}
	for _, p := range m.pkgs {
		for _, fs := range [][]*ast.File{p.files, p.tests, p.xtests} {
			for _, f := range fs {
				owner[fset.File(f.Pos())] = p.path
			}
		}
	}
	used := func(info *types.Info, tests bool) map[types.Object]bool {
		set := map[types.Object]bool{}
		for id, obj := range info.Uses {
			file := fset.File(id.Pos())
			if m.testFile[file] != tests || obj.Pkg() == nil {
				continue
			}
			from := owner[file]
			if pathOf(obj.Pkg()) == from {
				continue
			}
			obj = origin(obj)
			set[obj] = true
			markTypes(obj.Type(), from, set, map[types.Type]bool{})
		}
		return set
	}
	prod, test := used(m.info, false), used(m.tinfo, true)

	viaInterface := map[string]bool{}
	for _, n := range stdMethods {
		viaInterface[n] = true
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, fld := range it.Methods.List {
						for _, id := range fld.Names {
							viaInterface[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	var out []finding
	for obj, d := range decls {
		switch {
		case prod[obj] || (d.method != "" && viaInterface[d.method]):
		case test[obj]:
			out = append(out, finding{catTestOnly, d.name, m.position(d.pos)})
		default:
			out = append(out, finding{catUnused, d.name, m.position(d.pos)})
		}
	}
	return out
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markTypes marks the named types that t mentions, outside package from,
// as used: a package that holds a value of a type uses the type, named or
// not. It does not descend into a named type's fields.
func markTypes(t types.Type, from string, set map[types.Object]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if pathOf(t.Obj().Pkg()) != from {
			set[t.Obj()] = true
		}
		for i := range t.TypeArgs().Len() {
			markTypes(t.TypeArgs().At(i), from, set, seen)
		}
	case *types.Pointer:
		markTypes(t.Elem(), from, set, seen)
	case *types.Slice:
		markTypes(t.Elem(), from, set, seen)
	case *types.Array:
		markTypes(t.Elem(), from, set, seen)
	case *types.Chan:
		markTypes(t.Elem(), from, set, seen)
	case *types.Map:
		markTypes(t.Key(), from, set, seen)
		markTypes(t.Elem(), from, set, seen)
	case *types.Signature:
		if t.Recv() != nil {
			markTypes(t.Recv().Type(), from, set, seen)
		}
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tup.Len() {
				markTypes(tup.At(i).Type(), from, set, seen)
			}
		}
	case *types.Struct:
		for i := range t.NumFields() {
			markTypes(t.Field(i).Type(), from, set, seen)
		}
	}
}

// nondeterminism lists the time.Now and time.Since references and go
// statements in the production files of the simulation packages, each
// named after its enclosing declaration.
func (m *module) nondeterminism() []finding {
	var out []finding
	for _, name := range simPackages {
		p := m.byPath[m.path+"/internal/"+name]
		if p == nil {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				where := p.name + "." + declName(d)
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						out = append(out, finding{catDeterminism, where + ":go", m.position(n.Pos())})
					case *ast.Ident:
						if fn, ok := m.info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
							(fn.Name() == "Now" || fn.Name() == "Since") {
							out = append(out, finding{catDeterminism, where + ":time." + fn.Name(), m.position(n.Pos())})
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// declName names a top-level declaration: Func, Type.Method, or the first
// name a var, const or type declaration declares.
func declName(d ast.Decl) string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil || len(d.Recv.List) == 0 {
			return d.Name.Name
		}
		t := d.Recv.List[0].Type
		for {
			switch x := t.(type) {
			case *ast.StarExpr:
				t = x.X
				continue
			case *ast.IndexExpr:
				t = x.X
				continue
			case *ast.IndexListExpr:
				t = x.X
				continue
			}
			break
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + d.Name.Name
		}
		return d.Name.Name
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.ValueSpec:
				return s.Names[0].Name
			case *ast.TypeSpec:
				return s.Name.Name
			}
		}
	}
	return "_"
}

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	dotted     = regexp.MustCompile(`^[*&]?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?$`)
	testName   = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark|Example)\w*$`)
	fileExt    = regexp.MustCompile(`^(?:md|json|jsonl|go|mod|sum|yml|yaml|txt|csv|golden|sh|out|prof|html|log|svg|png|pb|gz)$`)
	modulePath = regexp.MustCompile(`^(?:(?:cmd|internal|examples)(?:/[\w.*-]+)*/?|[\w.-]+\.json)$`)
	goFile     = regexp.MustCompile(`^(?:[\w.-]+/)*[A-Za-z0-9][\w.-]*\.go$`)
)

// unresolvedDocNames lists the backticked pkg.Ident, Type.Method and
// TestXxx names of docFiles that resolve to nothing in the module, and
// the backticked paths that name nothing: a path under cmd/, internal/ or
// examples/ or a *.json file (from the module root, globs allowed) that
// does not exist, or a *.go file name that ends no Go file's path in the
// module, and every section reference that names no section
// (unresolvedSections). Fenced code blocks are skipped.
func (m *module) unresolvedDocNames() ([]finding, error) {
	byName := map[string][]*pkg{}
	typeNames := map[string][]*types.TypeName{}
	tests := map[string]bool{}
	for _, p := range m.pkgs {
		if p.tTypes == nil || p.name == "main" {
			continue
		}
		byName[p.name] = append(byName[p.name], p)
		scope := p.tTypes.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok && tn.Exported() {
				typeNames[n] = append(typeNames[n], tn)
			}
		}
	}
	for _, names := range m.testFuncs {
		for _, n := range names {
			tests[n] = true
		}
	}
	var goFiles []string
	for _, p := range m.pkgs {
		for _, fs := range [][]*ast.File{p.files, p.tests, p.xtests, p.ignored, p.ignoredTests} {
			for _, f := range fs {
				goFiles = append(goFiles, "/"+m.position(f.Pos()).Filename)
			}
		}
	}

	// A benchmark metric's name (layer.metric) resolves when
	// BENCHMARK.json declares it.
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(m.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("reading BENCHMARK.json's metrics: %w", err)
	}
	metrics := map[string]bool{}
	for _, mt := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[mt.Name] = true
	}

	var out []finding
	sections := map[string][]title{}
	for _, doc := range docFiles {
		lines, err := readProse(filepath.Join(m.root, doc))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for i, text := range lines {
			for _, sm := range backticked.FindAllStringSubmatch(text, -1) {
				span := strings.TrimSpace(sm[1])
				ok := true
				switch {
				case modulePath.MatchString(span):
					matches, err := filepath.Glob(filepath.Join(m.root, span))
					ok = err == nil && len(matches) > 0
				case goFile.MatchString(span):
					ok = slices.ContainsFunc(goFiles, func(f string) bool { return strings.HasSuffix(f, "/"+span) })
				case testName.MatchString(span):
					ok = tests[span]
				case dotted.MatchString(span):
					ok = metrics[span] || m.resolves(strings.Split(dotted.FindStringSubmatch(span)[1], "."), byName, typeNames)
				}
				if !ok {
					out = append(out, finding{catDoc, span, token.Position{Filename: doc, Line: i + 1}})
				}
			}
		}
		refs, err := m.unresolvedSections(doc, lines, sections)
		if err != nil {
			return nil, err
		}
		out = append(out, refs...)
	}
	return out, nil
}

// resolves reports whether a dotted doc name names something: pkg.Ident
// (then members), or Type.Member for an exported type of any package. A
// name whose head is neither a package nor capitalised (a variable, a
// file name) is not checked.
func (m *module) resolves(parts []string, byName map[string][]*pkg, typeNames map[string][]*types.TypeName) bool {
	if ps := byName[parts[0]]; len(ps) > 0 {
		for _, p := range ps {
			if obj := p.tTypes.Scope().Lookup(parts[1]); obj != nil && members(obj, parts[2:]) {
				return true
			}
		}
		return false
	}
	if !unicode.IsUpper(rune(parts[0][0])) || (len(parts) == 2 && fileExt.MatchString(parts[1])) {
		return true
	}
	for _, tn := range typeNames[parts[0]] {
		if members(tn, parts[1:]) {
			return true
		}
	}
	return false
}

// members reports whether each name in rest is a field or method of the
// type of the one before it, starting from obj.
func members(obj types.Object, rest []string) bool {
	for _, n := range rest {
		if _, ok := obj.(*types.Func); ok {
			return false
		}
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), n)
		if obj == nil {
			return false
		}
	}
	return true
}
