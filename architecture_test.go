package bgpblackholing

import (
	"bytes"
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// TestArchitecture holds the module to the one-owner rules of
// docs/ARCHITECTURE.md (archRules). Each rule must pass on the module,
// reject the fixture that breaks it — so a rule that stops seeing its
// violation fails too — and be stated in the document in the words it
// fails with.
func TestArchitecture(t *testing.T) {
	m, err := rootModule()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := fs.ReadFile(m.fsys, "docs/ARCHITECTURE.md")
	if err != nil {
		t.Error(err) // and every rule is unstated, but still checked
	}
	prose := strings.Join(strings.Fields(string(doc)), " ")
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			if !strings.Contains(prose, r.law) {
				t.Errorf("docs/ARCHITECTURE.md does not state this rule word for word: %s", r.law)
			}
			broken, err := loadGoModule(r.breaks)
			if err != nil {
				t.Fatalf("the rule's fixture: %v", err)
			}
			for i, check := range r.checks {
				if problems := check(m); len(problems) > 0 {
					t.Errorf("%s\n\t%s", r.law, strings.Join(problems, "\n\t"))
				}
				if !slices.ContainsFunc(check(broken), func(p string) bool { return !strings.HasPrefix(p, "gone: ") }) {
					t.Errorf("check %d accepts the fixture that breaks it", i+1)
				}
			}
		})
	}
}

// archRule is one of docs/ARCHITECTURE.md's one-owner rules, checked on
// the module's syntax.
type archRule struct {
	name   string
	gates  string       // the CI grep steps the rule replaced
	law    string       // its sentence in docs/ARCHITECTURE.md, word for word, and its failure message
	checks []archCheck  // each must pass on the module
	breaks fstest.MapFS // a module that breaks every check
}

// archCheck returns what breaks a rule in m, one line each. A line that
// starts "gone: " says an owner or a scope the rule names no longer
// exists: a rule about a renamed function would otherwise pass for ever.
type archCheck func(m *goModule) []string

// archFixture is a module of the given path, source pairs.
func archFixture(pathsAndSources ...string) fstest.MapFS {
	fsys := fstest.MapFS{}
	for i := 0; i+1 < len(pathsAndSources); i += 2 {
		fsys[pathsAndSources[i]] = &fstest.MapFile{Data: []byte(pathsAndSources[i+1])}
	}
	return fsys
}

// archScope says where a check looks: a file, and the top-level function
// around the node ("" outside any).
type archScope func(f *goFile, fn string) bool

func archNonTest(f *goFile, _ string) bool { return !f.test }

func archAnyFile(*goFile, string) bool { return true }

func archInDir(dir string) archScope {
	return func(f *goFile, _ string) bool { return !f.test && f.dir == dir }
}

func archOutsideDir(dir string) archScope {
	return func(f *goFile, _ string) bool { return !f.test && f.dir != dir }
}

func archInFile(p string) archScope { return func(f *goFile, _ string) bool { return f.path == p } }

func archInFunc(dir, name string) archScope {
	return func(f *goFile, fn string) bool { return !f.test && f.dir == dir && fn == name }
}

// archShape is a syntax shape a check confines; at is where n was found.
type archShape func(at *archSite, n ast.Node) bool

// archSite is a node's place: its file, and the top-level function around
// it (nil outside one), whose names are resolved when a shape asks.
type archSite struct {
	m    *goModule
	file *goFile
	fn   *goFunc
	env  *fnEnv
}

func (s *archSite) typeOf(x ast.Expr) typeRef {
	if s.fn == nil {
		return typeRef{}
	}
	if s.env == nil {
		s.env = s.m.env(s.fn)
	}
	return s.env.typeOf(x)
}

// onlyIn confines what match finds within scope to the functions ("F",
// "T.M"), package-level variables ("v") and files ("dir/x.go") named in
// owners; no owners means never. The scope must still hold a declaration,
// and every owner must still be in it.
func onlyIn(what string, scope archScope, match archShape, owners ...string) archCheck {
	return func(m *goModule) (problems []string) {
		seen := map[string]bool{}
		for _, f := range m.files {
			for _, decl := range f.syntax.Decls {
				at, fn := &archSite{m: m, file: f}, ""
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, at.fn = declName(d), m.byDecl[d]
				case *ast.GenDecl:
					if vs, ok := d.Specs[0].(*ast.ValueSpec); ok && len(d.Specs) == 1 && len(vs.Names) == 1 {
						fn = vs.Names[0].Name
					}
				}
				if !scope(f, fn) {
					continue
				}
				seen[""], seen[f.path], seen[fn] = true, true, true
				if slices.Contains(owners, fn) || slices.Contains(owners, f.path) {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if n != nil && match(at, n) {
						problems = append(problems, fmt.Sprintf("%s: %s in %s", m.pos(n), what, cmp.Or(fn, "a declaration")))
					}
					return true
				})
			}
		}
		if !seen[""] {
			problems = append(problems, "gone: the rule's scope holds no declaration")
		}
		for _, o := range owners {
			if !seen[o] {
				problems = append(problems, "gone: "+o+", the owner the rule names")
			}
		}
		return problems
	}
}

// pkgRef matches a reference to one of the named members of the package
// imported from importPath.
func pkgRef(importPath string, names ...string) archShape {
	return func(at *archSite, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !slices.Contains(names, sel.Sel.Name) {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && at.file.imports[x.Name] == importPath
	}
}

// callOf matches a call of the function name — name(…) — or, with a
// leading dot, of any method or function field so named: x.name(…).
func callOf(name string) archShape {
	return func(_ *archSite, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			return fun.Name == name
		case *ast.SelectorExpr:
			return "."+fun.Sel.Name == name
		}
		return false
	}
}

// selectorPath matches a selector chain ending in names: x.file.Write.
func selectorPath(names ...string) archShape {
	return func(_ *archSite, n ast.Node) bool {
		for i := len(names) - 1; i >= 0; i-- {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != names[i] {
				return false
			}
			n = sel.X
		}
		return true
	}
}

// literalOf matches a composite literal of the named type: T{…}, or a
// slice, array or map literal of T.
func literalOf(name string) archShape {
	return func(_ *archSite, n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return false
		}
		t := lit.Type
		for {
			switch x := t.(type) {
			case *ast.ArrayType:
				t = x.Elt
				continue
			case *ast.MapType:
				t = x.Value
				continue
			case *ast.StarExpr:
				t = x.X
				continue
			case *ast.Ident:
				return x.Name == name
			}
			return false
		}
	}
}

// markerLoop matches a loop of 16 steps — i < 16, range 16, range x[:16]
// — the shape of a hand-written BGP marker.
func markerLoop(_ *archSite, n ast.Node) bool {
	sixteen := func(x ast.Expr) bool {
		lit, ok := x.(*ast.BasicLit)
		return ok && lit.Kind == token.INT && lit.Value == "16"
	}
	switch n := n.(type) {
	case *ast.ForStmt:
		cond, ok := n.Cond.(*ast.BinaryExpr)
		return ok && cond.Op == token.LSS && sixteen(cond.Y)
	case *ast.RangeStmt:
		if sl, ok := n.X.(*ast.SliceExpr); ok {
			return sl.Low == nil && sixteen(sl.High)
		}
		return sixteen(n.X)
	}
	return false
}

// stdMethodCall matches x.method(…) on a value of the standard type
// importPath.typ — spelled so, or one of the package's variables vars —
// or on a value whose type the spelling does not tell.
func stdMethodCall(importPath, typ, method string, vars ...string) archShape {
	return func(at *archSite, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return false
		}
		if pkgRef(importPath, vars...)(at, sel.X) {
			return true
		}
		t := at.typeOf(sel.X)
		if t.expr == nil {
			return !t.std
		}
		x, ok := bareType(t.expr).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := x.X.(*ast.Ident)
		return ok && t.file.imports[pkg.Name] == importPath && x.Sel.Name == typ
	}
}

// mounts matches a route mounted on a mux: x.Handle(…) or x.HandleFunc(…).
func mounts(at *archSite, n ast.Node) bool {
	return callOf(".Handle")(at, n) || callOf(".HandleFunc")(at, n)
}

// servesBackend matches a method of its package's handler type that reads
// the Backend — selects h.be or h.store — taken as a value: an argument,
// an element of a literal, an assignment's right-hand side.
func servesBackend(at *archSite, n ast.Node) bool {
	var values []ast.Expr
	switch n := n.(type) {
	case *ast.CallExpr:
		values = n.Args
	case *ast.CompositeLit:
		values = n.Elts
	case *ast.AssignStmt:
		values = n.Rhs
	}
	for _, v := range values {
		if kv, ok := v.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		sel, ok := ast.Unparen(v).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		for _, fn := range at.m.byKey[at.file.dir+".handler."+sel.Sel.Name] {
			reads := false
			ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
				reads = reads || selectorPath("be")(at, n) || selectorPath("store")(at, n)
				return !reads
			})
			if reads {
				return true
			}
		}
	}
	return false
}

// assertsBackend matches a type assertion, or a type switch, on a value
// of its package's Backend type.
func assertsBackend(at *archSite, n ast.Node) bool {
	x, ok := n.(*ast.TypeAssertExpr)
	if !ok {
		return false
	}
	key, _ := at.m.named(at.typeOf(x.X))
	return key == at.file.dir+".Backend"
}

// readsColdOpen matches x.ColdOpen and a ColdOpen: key.
func readsColdOpen(_ *archSite, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		return n.Sel.Name == "ColdOpen"
	case *ast.KeyValueExpr:
		key, ok := n.Key.(*ast.Ident)
		return ok && key.Name == "ColdOpen"
	}
	return false
}

// parsesIntoQuery matches a Query field set from a parse: an assignment
// to a field of a Query, or a keyed Query literal, whose value holds a
// call of a Parse…, parse… or Atoi function other than ParseQuery, or a
// name the function around it bound from one.
func parsesIntoQuery(at *archSite, n ast.Node) bool {
	isQuery := func(t typeRef) bool { key, _ := at.m.named(t); return key == ".Query" }
	var values []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok && isQuery(at.typeOf(sel.X)) {
				values = append(values, n.Rhs[min(i, len(n.Rhs)-1)])
			}
		}
	case *ast.CompositeLit:
		if n.Type != nil && isQuery(typeRef{file: at.file, expr: n.Type}) {
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					values = append(values, kv.Value)
				}
			}
		}
	}
	if len(values) == 0 {
		return false
	}
	parse := func(x ast.Expr) bool {
		call, ok := ast.Unparen(x).(*ast.CallExpr)
		if !ok {
			return false
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		return name != "ParseQuery" && (strings.HasPrefix(strings.ToLower(name), "parse") || name == "Atoi")
	}
	parsed := map[string]bool{} // the names bound from a parse
	if at.fn != nil {
		ast.Inspect(at.fn.decl.Body, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = n.Lhs, n.Rhs
			case *ast.ValueSpec:
				rhs = n.Values
				for _, id := range n.Names {
					lhs = append(lhs, id)
				}
			}
			for i, l := range lhs {
				if id, ok := l.(*ast.Ident); ok && len(rhs) > 0 && parse(rhs[min(i, len(rhs)-1)]) {
					parsed[id.Name] = true
				}
			}
			return true
		})
	}
	for _, v := range values {
		found := false
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && parsed[id.Name] {
				found = true
			}
			if x, ok := n.(ast.Expr); ok && parse(x) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// startsRelease matches a call of a release or Release method, except
// one inside such a method that passes on the element it was given.
func startsRelease(at *archSite, n ast.Node) bool {
	if !callOf(".release")(at, n) && !callOf(".Release")(at, n) {
		return false
	}
	if at.fn == nil || at.fn.decl.Recv == nil || !strings.EqualFold(at.fn.decl.Name.Name, "release") {
		return true
	}
	params, args := at.fn.decl.Type.Params.List, n.(*ast.CallExpr).Args
	if len(args) != 1 || len(params) != 1 || len(params[0].Names) != 1 {
		return true
	}
	arg, ok := ast.Unparen(args[0]).(*ast.Ident)
	return !ok || arg.Name != params[0].Names[0].Name
}

// noMapIn finds the map types reachable from the fields of the named
// module types (dir.T), through every module type those hold and every
// type argument they are instantiated with.
func noMapIn(types ...string) archCheck {
	return func(m *goModule) (problems []string) {
		seen := map[ast.Expr]bool{}
		var walk func(t typeRef, path string)
		walk = func(t typeRef, path string) {
			if t.expr == nil || seen[t.expr] {
				return
			}
			seen[t.expr] = true
			in := func(x ast.Expr) typeRef { return typeRef{file: t.file, expr: x} }
			switch x := t.expr.(type) {
			case *ast.MapType:
				problems = append(problems, fmt.Sprintf("%s: %s is a map", m.pos(x), path))
			case *ast.StarExpr:
				walk(in(x.X), path)
			case *ast.ParenExpr:
				walk(in(x.X), path)
			case *ast.ArrayType:
				walk(in(x.Elt), path+"[]")
			case *ast.ChanType:
				walk(in(x.Value), path)
			case *ast.IndexExpr:
				walk(in(x.X), path)
				walk(in(x.Index), path)
			case *ast.IndexListExpr:
				walk(in(x.X), path)
				for _, ix := range x.Indices {
					walk(in(ix), path)
				}
			case *ast.StructType:
				for _, f := range x.Fields.List {
					name := embeddedName(f.Type)
					if len(f.Names) > 0 {
						name = f.Names[0].Name
					}
					walk(in(f.Type), path+"."+name)
				}
			case *ast.Ident, *ast.SelectorExpr:
				key, _ := m.named(t)
				if d := m.types[key]; d != nil {
					walk(typeRef{file: d.file, expr: d.spec.Type}, path)
				}
			}
		}
		for _, name := range types {
			d := m.types[name]
			if d == nil {
				problems = append(problems, "gone: "+name+", the type the rule names")
				continue
			}
			walk(typeRef{file: d.file, expr: d.spec.Type}, name[strings.LastIndexByte(name, '/')+1:])
		}
		return problems
	}
}

// noField finds the fields of the struct type typ (dir.T) that bad picks
// out; what says what is wrong with them.
func noField(typ, what string, bad func(name string, t ast.Expr) bool) archCheck {
	return func(m *goModule) (problems []string) {
		d := m.types[typ]
		if d == nil {
			return []string{"gone: " + typ + ", the type the rule names"}
		}
		st, ok := d.spec.Type.(*ast.StructType)
		if !ok {
			return []string{"gone: " + typ + " is no struct"}
		}
		for _, f := range st.Fields.List {
			names := []string{embeddedName(f.Type)}
			if len(f.Names) > 0 {
				names = names[:0]
				for _, n := range f.Names {
					names = append(names, n.Name)
				}
			}
			for _, name := range names {
				if bad(name, f.Type) {
					problems = append(problems, fmt.Sprintf("%s: field %s %s", m.pos(f), name, what))
				}
			}
		}
		return problems
	}
}

// mentions reports whether the type expression x names any of names.
func mentions(x ast.Expr, names ...string) (found bool) {
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(names, id.Name) {
			found = true
		}
		return !found
	})
	return found
}

// modeTypes finds the named types that have a typed constant group of
// their own holding an …Exact and an …Covered member, and wants the one
// type want (dir.T). A constant spelled without a type — the root's
// re-exports of the store's modes — is not its type's own.
func modeTypes(want string) archCheck {
	return func(m *goModule) (problems []string) {
		var found []string
		for _, f := range m.files {
			if f.test {
				continue
			}
			for _, decl := range f.syntax.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				var typ ast.Expr
				exact, covered := map[string]bool{}, map[string]bool{}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Type != nil || len(vs.Values) > 0 {
						typ = vs.Type
					}
					key, _ := m.named(typeRef{file: f, expr: typ})
					if key == "" {
						continue
					}
					for _, n := range vs.Names {
						exact[key] = exact[key] || strings.HasSuffix(n.Name, "Exact")
						covered[key] = covered[key] || strings.HasSuffix(n.Name, "Covered")
					}
				}
				for key := range exact {
					if exact[key] && covered[key] {
						found = append(found, key+" ("+m.pos(gd)+")")
					}
				}
			}
		}
		slices.Sort(found)
		if len(found) != 1 || !strings.HasPrefix(found[0], want+" ") {
			problems = append(problems, fmt.Sprintf("mode types %v, want %s alone", found, want))
		}
		return problems
	}
}

// reachesNo finds the members of the package at importPath that the
// functions roots (dir.F keys) reach through the module's non-test call
// graph (goModule.calls). The walk does not enter the functions in
// except, each allowed its use of the package for the reason given.
func reachesNo(importPath string, roots []string, except map[string]string) archCheck {
	return func(m *goModule) (problems []string) {
		for _, key := range slices.Concat(roots, slices.Sorted(maps.Keys(except))) {
			if len(m.byKey[key]) == 0 {
				problems = append(problems, "gone: "+strings.TrimPrefix(key, ".")+", a function the rule names")
			}
		}
		from := map[*goFunc]*goFunc{}
		var queue []*goFunc
		enter := func(g, by *goFunc) {
			if _, seen := from[g]; !seen && !g.file.test {
				from[g] = by
				queue = append(queue, g)
			}
		}
		for _, key := range roots {
			for _, g := range m.byKey[key] {
				enter(g, nil)
			}
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if _, ok := except[fn.key()]; ok {
				continue
			}
			m.calls(fn, func(g *goFunc) { enter(g, fn) }, func(p string, sel *ast.SelectorExpr) {
				if p != importPath {
					return
				}
				chain := []string{fn.String()}
				for by := from[fn]; by != nil; by = from[by] {
					chain = append(chain, by.String())
				}
				slices.Reverse(chain)
				problems = append(problems, fmt.Sprintf("%s: %s.%s, reached by %s", m.pos(sel), sel.X.(*ast.Ident).Name, sel.Sel.Name, strings.Join(chain, " → ")))
			})
		}
		return problems
	}
}

// facadeOnly finds the imports of internal packages under cmd/ and
// examples/.
func facadeOnly(m *goModule) (problems []string) {
	for _, f := range m.files {
		if !strings.HasPrefix(f.path, "cmd/") && !strings.HasPrefix(f.path, "examples/") {
			continue
		}
		for _, im := range f.syntax.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == modulePath+"/internal" || strings.HasPrefix(p, modulePath+"/internal/") {
				problems = append(problems, fmt.Sprintf("%s: imports %s", m.pos(im), p))
			}
		}
	}
	return problems
}

// docsNameEveryPackage finds the internal packages that neither
// README.md nor any file under docs/ names.
func docsNameEveryPackage(m *goModule) (problems []string) {
	docs, _ := fs.ReadFile(m.fsys, "README.md")
	fs.WalkDir(m.fsys, "docs", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			b, _ := fs.ReadFile(m.fsys, p)
			docs = append(docs, b...)
		}
		return nil
	})
	pkgs, err := fs.ReadDir(m.fsys, "internal")
	if err != nil {
		return []string{"gone: internal/, the directory the rule names"}
	}
	for _, d := range pkgs {
		if d.IsDir() && !bytes.Contains(docs, []byte("internal/"+d.Name())) {
			problems = append(problems, "internal/"+d.Name()+" is named in neither README.md nor docs/")
		}
	}
	return problems
}

// archRules are the one-owner rules, in docs/ARCHITECTURE.md's words.
// A new owner is one more row.
var archRules = []archRule{{
	name:  "one-queue",
	gates: "one-queue gate",
	law:   "Only `internal/stream/queue.go` uses a `sync.Cond`; every other hand-off whose producer must not wait goes through a `stream.Queue`.",
	checks: []archCheck{
		onlyIn("a sync.Cond", archNonTest, pkgRef("sync", "Cond", "NewCond"), "internal/stream/queue.go"),
	},
	breaks: archFixture(
		"internal/stream/queue.go", `package stream; import "sync"; var parked = sync.NewCond(nil)`,
		"internal/alert/hub.go", `package alert; import "sync"; type hub struct{ ready *sync.Cond }`),
}, {
	name:  "one-commit",
	gates: "one commit gate",
	law:   "Only `internal/store/commit.go` calls `os.CreateTemp` or `os.Rename`.",
	checks: []archCheck{
		onlyIn("a temp file or a rename", archNonTest, pkgRef("os", "CreateTemp", "Rename"), "internal/store/commit.go"),
	},
	breaks: archFixture(
		"internal/store/commit.go", `package store; import "os"; func CommitFile() { os.CreateTemp("", "x"); os.Rename("x", "y") }`,
		"archive.go", `package bgpblackholing; import "os"; func publish() error { return os.Rename("a.tmp", "a") }`),
}, {
	name:   "no-map-in-event",
	gates:  "one peer ledger gate; an event owns no map",
	law:    "No map type is reachable from the fields of `core.Event` or of `core.prefixState`, the one peer ledger.",
	checks: []archCheck{noMapIn("internal/core.Event", "internal/core.prefixState")},
	breaks: archFixture("internal/core/engine.go", `package core
type ProviderRef struct{ ASN uint32 }
type Keyed[K, V any] struct{ Key K; Val V }
type Event struct{ Users []Keyed[ProviderRef, map[uint32]bool] }
type prefixState struct{ event *Event; peers map[string]bool }`),
}, {
	name:  "one-segment-ledger",
	gates: "one segment ledger gate",
	law:   "`buildSummary` is called only by `Store.writeSummary`, a `segDesc` literal is written only in `describe`, and a `segFile` literal only in `listDir`.",
	checks: []archCheck{
		onlyIn("a buildSummary call", archInDir("internal/store"), callOf("buildSummary"), "Store.writeSummary"),
		onlyIn("a segDesc literal", archInDir("internal/store"), literalOf("segDesc"), "describe"),
		onlyIn("a segFile literal", archInDir("internal/store"), literalOf("segFile"), "listDir"),
	},
	breaks: archFixture("internal/store/segment.go", `package store
type Store struct{}
type segDesc struct{ size int64 }
type segFile struct{ segDesc; seq uint64 }
func buildSummary() {}
func describe() segDesc { return segDesc{} }
func listDir() []segFile { return []segFile{{seq: 1}} }
func (s *Store) writeSummary() { buildSummary() }
func (s *Store) heal() ([]segDesc, segFile) { buildSummary(); return []segDesc{{size: 1}}, segFile{seq: 2} }`),
}, {
	name:  "one-write-path",
	gates: "one write path",
	law:   "Only `Store.sync` calls `fsync`, only `Store.record` writes to a segment's `file`, and in `store.go` only `Store.record` frames a record with `appendRecord`.",
	checks: []archCheck{
		onlyIn("an fsync", archInDir("internal/store"), callOf(".fsync"), "Store.sync"),
		onlyIn("a segment file write", archInDir("internal/store"), selectorPath("file", "Write"), "Store.record"),
		onlyIn("a record framed", archInFile("internal/store/store.go"), callOf("appendRecord"), "Store.record"),
	},
	breaks: archFixture("internal/store/store.go", `package store
import "os"
type Store struct{ active struct{ file *os.File } }
func appendRecord(buf, p []byte) []byte { return append(buf, p...) }
func (s *Store) fsync() error { return s.active.file.Sync() }
func (s *Store) sync() error { return s.fsync() }
func (s *Store) record(p []byte) error { _, err := s.active.file.Write(appendRecord(nil, p)); return err }
func (s *Store) Close() error { s.active.file.Write(appendRecord(nil, nil)); return s.fsync() }`),
}, {
	name:  "one-coin-stream",
	gates: "one coin stream",
	law:   "No non-test code in `internal/workload` calls a `Seed` method, and `Materialize` builds no `rand.NewSource`.",
	checks: []archCheck{
		onlyIn("a reseed", archInDir("internal/workload"), callOf(".Seed")),
		onlyIn("a rand.NewSource", archInFunc("internal/workload", "Materialize"), pkgRef("math/rand", "NewSource")),
	},
	breaks: archFixture("internal/workload/workload.go", `package workload
import "math/rand"
func Materialize(seed int64) float64 { return rand.New(rand.NewSource(seed)).Float64() }
func reseed(r *rand.Rand, seed int64) { r.Seed(seed) }`),
}, {
	name: "one-window-materialiser",
	law:  "A window is materialised one way: in non-test code only `ReplaySource.start` calls `workload.Materialize`, and outside `internal/collector` only `Intent.Announcement` names a `collector.Announcement`.",
	checks: []archCheck{
		onlyIn("a Materialize call", archNonTest, pkgRef(modulePath+"/internal/workload", "Materialize"), "ReplaySource.start"),
		onlyIn("an Announcement spelled", archOutsideDir("internal/collector"), pkgRef(modulePath+"/internal/collector", "Announcement"), "Intent.Announcement"),
	},
	breaks: archFixture(
		"internal/workload/workload.go", `package workload
import "bgpblackholing/internal/collector"
type Intent struct{ User uint32 }
func (in *Intent) Announcement() collector.Announcement { return collector.Announcement{User: in.User} }
func Materialize(d *collector.Deployment, intents []Intent) { for _, in := range intents { d.Propagate(collector.Announcement{User: in.User}) } }`,
		"source.go", `package bgpblackholing
import "bgpblackholing/internal/workload"
type ReplaySource struct{}
func (r *ReplaySource) start() { workload.Materialize(nil, nil) }`,
		"archive.go", `package bgpblackholing
import "bgpblackholing/internal/workload"
func WriteMRTArchives(intents []workload.Intent) { workload.Materialize(nil, intents) }`),
}, {
	name:  "one-identity-ledger",
	gates: "one identity ledger gate",
	law:   "`RemoteBackend` keeps no shard identity: none of its fields is named for one or typed `shardIdentity` or `placement`.",
	checks: []archCheck{noField(".RemoteBackend", "holds a shard identity", func(name string, typ ast.Expr) bool {
		return strings.Contains(strings.ToLower(name), "identity") || mentions(typ, "shardIdentity", "placement")
	})},
	breaks: archFixture("remote.go", `package bgpblackholing
type shardIdentity struct{ spec string }
type RemoteBackend struct{ name string; shard *shardIdentity }`),
}, {
	name: "one-query-client",
	law:  "The query API has one client: in non-test code outside `internal/alert`, only `RemoteBackend.send` calls `(*http.Client).Do`; only `attempt` and `Healthz` call `send`; and only `roundTrip` calls `attempt`.",
	checks: []archCheck{
		onlyIn("an HTTP request sent", archOutsideDir("internal/alert"), stdMethodCall("net/http", "Client", "Do", "DefaultClient"), "RemoteBackend.send"),
		onlyIn("a send call", archNonTest, callOf(".send"), "RemoteBackend.attempt", "RemoteBackend.Healthz"),
		onlyIn("an attempt call", archNonTest, callOf(".attempt"), "RemoteBackend.roundTrip"),
	},
	breaks: archFixture(
		"remote.go", `package bgpblackholing
import "net/http"
type RemoteBackend struct{ urls []string }
func (b *RemoteBackend) send(req *http.Request) (*http.Response, error) { return http.DefaultClient.Do(req) }
func (b *RemoteBackend) attempt(req *http.Request) (*http.Response, error) { return b.send(req) }
func (b *RemoteBackend) Healthz(req *http.Request) { b.send(req) }
func (b *RemoteBackend) roundTrip(req *http.Request) { b.attempt(req) }
func (b *RemoteBackend) hedged(req *http.Request) { go b.attempt(req) }
func (b *RemoteBackend) Stats(req *http.Request) { b.send(req) }`,
		"cmd/bhquery/main.go", `package main
import "net/http"
func serverGET(c *http.Client, req *http.Request) (*http.Response, error) { return c.Do(req) }`,
		"internal/alert/webhook.go", `package alert
import "net/http"
type Webhook struct{ client *http.Client }
func (w *Webhook) post(req *http.Request) { w.client.Do(req) }`),
}, {
	name:  "one-fan-out-one-merge",
	gates: "one fan-out, one merge gate",
	law:   "In `federate.go` only `FederatedStore.fanOut` waits on a `sync.WaitGroup`, and only `FederatedStore.merge` calls `stream.NewHeap`.",
	checks: []archCheck{
		onlyIn("a WaitGroup wait", archInFile("federate.go"), stdMethodCall("sync", "WaitGroup", "Wait"), "FederatedStore.fanOut"),
		onlyIn("a stream.NewHeap", archNonTest, pkgRef(modulePath+"/internal/stream", "NewHeap"), "FederatedStore.merge"),
	},
	breaks: archFixture("federate.go", `package bgpblackholing
import ("sync"; "bgpblackholing/internal/stream")
type FederatedStore struct{}
func (f *FederatedStore) fanOut() { var wg sync.WaitGroup; wg.Wait() }
func (f *FederatedStore) merge() { stream.NewHeap() }
func (f *FederatedStore) figure4() { var shards sync.WaitGroup; shards.Wait(); stream.NewHeap() }`),
}, {
	name:  "one-shard-reader",
	gates: "one shard reader gate",
	law:   "`RemoteBackend.RecordLines`, `RemoteBackend.scanLines`, `RemoteBackend.Figure4Sets` and `parseFigure4Sets` reach no `encoding/json` symbol, except through `RemoteBackend.attempt`, which decodes a non-2xx answer's error body, and `lineKey.set`, which leaves an escaped or non-ASCII key to the library.",
	checks: []archCheck{reachesNo("encoding/json",
		[]string{".RemoteBackend.RecordLines", ".RemoteBackend.scanLines", ".RemoteBackend.Figure4Sets", ".parseFigure4Sets"},
		map[string]string{
			".RemoteBackend.attempt": `decodes a non-2xx answer's {"error": …} body`,
			".lineKey.set":           "unquotes an escaped or non-ASCII key through the library, as json.Unmarshal would; FuzzRecordLineKey holds it to that",
		})},
	breaks: archFixture("remote.go", `package bgpblackholing
import ("encoding/json"; "io")
type RemoteBackend struct{}
type lineKey struct{}
func (b *RemoteBackend) attempt() error { return json.Unmarshal(nil, nil) }
func (b *RemoteBackend) RecordLines(r io.Reader) { b.attempt(); b.readSet(r); b.scanLines() }
func (b *RemoteBackend) readSet(r io.Reader) { json.NewDecoder(r) }
func (b *RemoteBackend) scanLines() { var k lineKey; k.set() }
func (k *lineKey) set() { json.Valid(nil) }
func (b *RemoteBackend) Figure4Sets() { parseFigure4Sets() }
func parseFigure4Sets() {}`),
}, {
	name: "one-record-read",
	law:  "A backend reads events one way, `RecordLines`: `appendEventLine` is called only by `StoreBackend.RecordLines`, `EncodeAlertRecord` and `AppendRecordLine`, `RemoteBackend.scanLines` only by `RemoteBackend.RecordLines`, and a `Records` method calls nothing but `collectRecords`.",
	checks: []archCheck{
		onlyIn("an appendEventLine call", archNonTest, callOf("appendEventLine"), "StoreBackend.RecordLines", "EncodeAlertRecord", "AppendRecordLine"),
		onlyIn("a scanLines call", archNonTest, callOf(".scanLines"), "RemoteBackend.RecordLines"),
		onlyIn("a call other than collectRecords", func(f *goFile, fn string) bool {
			return !f.test && f.dir == "" && strings.HasSuffix(fn, ".Records")
		}, func(_ *archSite, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			return ok && !callOf("collectRecords")(nil, call)
		}),
	},
	breaks: archFixture("backend.go", `package bgpblackholing
type RecordSet struct{ Records [][]byte }
type StoreBackend struct{}
type RemoteBackend struct{}
func appendEventLine(dst []byte) []byte { return dst }
func EncodeAlertRecord() []byte { return appendEventLine(nil) }
func AppendRecordLine(dst []byte) []byte { return appendEventLine(dst) }
func collectRecords() *RecordSet { return nil }
func (b *StoreBackend) RecordLines() []byte { return appendEventLine(nil) }
func (b *StoreBackend) Records() *RecordSet { return &RecordSet{Records: [][]byte{appendEventLine(nil)}} }
func (b *RemoteBackend) scanLines() {}
func (b *RemoteBackend) RecordLines() { b.scanLines() }
func (b *RemoteBackend) Records() *RecordSet { b.scanLines(); return collectRecords() }`),
}, {
	name: "one-json-layout",
	law:  "No non-test file of the root package calls `json.Indent`, `json.MarshalIndent` or `(*json.Encoder).SetIndent`: its answers are laid out by `indentValue`, called only by itself, `appendIndented` and `appendEnvelope`.",
	checks: []archCheck{
		onlyIn("a library layout", archInDir(""), func(at *archSite, n ast.Node) bool {
			return pkgRef("encoding/json", "Indent", "MarshalIndent")(at, n) || callOf(".SetIndent")(at, n)
		}),
		onlyIn("an indentValue call", archInDir(""), callOf("indentValue"), "indentValue", "appendIndented", "appendEnvelope"),
	},
	breaks: archFixture("http.go", `package bgpblackholing
import ("bytes"; "encoding/json"; "io")
func indentValue(dst, b []byte, i, depth int) ([]byte, int) { return indentValue(dst, b, i+1, depth+1) }
func appendIndented(dst, src []byte) ([]byte, int) { return indentValue(dst, src, 0, 0) }
func appendEnvelope(dst, line []byte) ([]byte, int) { return indentValue(dst, line, 0, 2) }
func writeJSON(w io.Writer, v any) { enc := json.NewEncoder(w); enc.SetIndent("", "  "); enc.Encode(v) }
func writeSet(dst *bytes.Buffer, src []byte) { json.Indent(dst, src, "", "  "); indentValue(nil, src, 0, 1) }
func writeTable(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }`),
}, {
	name:  "one-codec-per-byte-format",
	gates: "one codec per byte format",
	law:   "Only `internal/store/segment.go` calls `crc32.ChecksumIEEE`, and only `internal/bgp/wire.go` loops over the 16-byte BGP marker.",
	checks: []archCheck{
		onlyIn("a checksum", archAnyFile, pkgRef("hash/crc32", "ChecksumIEEE"), "internal/store/segment.go"),
		onlyIn("a 16-step loop", archAnyFile, markerLoop, "internal/bgp/wire.go"),
	},
	breaks: archFixture(
		"internal/store/segment.go", `package store; import "hash/crc32"; var sum = crc32.ChecksumIEEE(nil)`,
		"internal/bgp/wire.go", `package bgp; func marker(b []byte) { for range 16 {} }`,
		"internal/mrt/mrt.go", `package mrt
import "hash/crc32"
func check(b []byte) bool {
	for i := 0; i < 16; i++ { if b[i] != 0xff { return false } }
	return crc32.ChecksumIEEE(b) == 0
}`),
}, {
	name:  "one-session-lifecycle",
	gates: "one session lifecycle",
	law:   "Outside `internal/bgpd` only `establish` calls `bgpd.Establish`, and `redial.go` never calls `net.SplitHostPort`.",
	checks: []archCheck{
		onlyIn("a handshake", archOutsideDir("internal/bgpd"), pkgRef(modulePath+"/internal/bgpd", "Establish"), "establish"),
		onlyIn("an address split", archInFile("redial.go"), pkgRef("net", "SplitHostPort")),
	},
	breaks: archFixture(
		"session.go", `package bgpblackholing; import "bgpblackholing/internal/bgpd"; func establish() { bgpd.Establish(nil) }`,
		"redial.go", `package bgpblackholing
import ("net"; "bgpblackholing/internal/bgpd")
type RedialSource struct{}
func (r *RedialSource) dial(addr string) { bgpd.Establish(nil); net.SplitHostPort(addr) }`),
}, {
	name:   "one-spelling-per-setting",
	gates:  "one spelling per setting",
	law:    "Exactly one named type in the module has a typed constant group of its own with an `…Exact` and an `…Covered` member: `store.PrefixMode`, which queries and alert rules share.",
	checks: []archCheck{modeTypes("internal/store.PrefixMode")},
	breaks: archFixture(
		"internal/store/query.go", `package store; type PrefixMode uint8; const ( PrefixExact PrefixMode = iota; PrefixCovered )`,
		"internal/alert/rule.go", `package alert; type Mode int; const ( ModeExact Mode = iota; ModeLPM; ModeCovered )`),
}, {
	name: "one-rule-reader",
	law:  "A rule is read in one place: in non-test code of `internal/alert`, only `ruleJSON.rule` calls `store.ParsePrefix`, `store.ParsePrefixMode`, `core.ParseProviderRef`, `bgp.ParseCommunity` or `time.ParseDuration`, so the compact syntax and the `/rules` JSON are two spellings of one wire form.",
	checks: []archCheck{
		onlyIn("a rule value parsed", archInDir("internal/alert"), func(at *archSite, n ast.Node) bool {
			return pkgRef(modulePath+"/internal/store", "ParsePrefix", "ParsePrefixMode")(at, n) ||
				pkgRef(modulePath+"/internal/core", "ParseProviderRef")(at, n) ||
				pkgRef(modulePath+"/internal/bgp", "ParseCommunity")(at, n) || pkgRef("time", "ParseDuration")(at, n)
		}, "ruleJSON.rule"),
	},
	breaks: archFixture("internal/alert/rule.go", `package alert
import ("time"; "bgpblackholing/internal/bgp"; "bgpblackholing/internal/core"; "bgpblackholing/internal/store")
type Rule struct{ Name string }
type ruleJSON struct{ Prefix, Mode, Provider, Community, MinDuration string }
func (w ruleJSON) rule() {
	store.ParsePrefix(w.Prefix); store.ParsePrefixMode(w.Mode); core.ParseProviderRef(w.Provider)
	bgp.ParseCommunity(w.Community); time.ParseDuration(w.MinDuration)
}
func ParseRule(s string) (Rule, error) { _, err := time.ParseDuration(s); return Rule{}, err }
func (r *Rule) UnmarshalJSON(data []byte) error { _, err := bgp.ParseCommunity(string(data)); return err }`),
}, {
	name:   "one-open-mode",
	gates:  "one open mode",
	law:    "Outside its declaration, `ColdOpen` is used as no selector and no literal key: the sidecar alone chooses how a sealed segment opens.",
	checks: []archCheck{onlyIn("ColdOpen read or set", archNonTest, readsColdOpen)},
	breaks: archFixture(
		"internal/store/store.go", `package store; type Options struct{ ColdOpen bool }; func open(o Options) bool { return o.ColdOpen }`,
		"cmd/bhserve/main.go", `package main; import "bgpblackholing"; var opts = bgpblackholing.StoreOptions{ColdOpen: true}`),
}, {
	name: "one-route-table",
	law:  "Only `newHandler` mounts a route, every GET data route is a row of `routes`, and nothing else in `http.go` type-asserts a `Backend`.",
	checks: []archCheck{
		onlyIn("a route mounted", archNonTest, mounts, "newHandler"),
		onlyIn("a Backend-reading handler outside routes", archInDir(""), servesBackend, "routes"),
		onlyIn("a Backend type-asserted", archInFile("http.go"), assertsBackend, "newHandler"),
	},
	breaks: archFixture("http.go", `package bgpblackholing
import "net/http"
type Backend interface{ Name() string }
type handler struct{ be Backend }
func (h *handler) events(w http.ResponseWriter, r *http.Request) { h.be.Name() }
func (h *handler) figure8(w http.ResponseWriter, r *http.Request) { h.be.Name() }
var routes = []struct{ pattern string; serve func(*handler, http.ResponseWriter, *http.Request) }{{"GET /events", (*handler).events}}
func newHandler(be Backend) *http.ServeMux {
	h, mux := &handler{be: be}, http.NewServeMux()
	for _, rt := range routes { mux.Handle(rt.pattern, nil) }
	mountTables(mux, h, be)
	return mux
}
func mountTables(mux *http.ServeMux, h *handler, be Backend) {
	if _, ok := be.(interface{ world() (*handler, error) }); ok {
		mux.Handle("GET /figure8", http.HandlerFunc(h.figure8))
	}
}`),
}, {
	name: "one-metrics-wiring",
	law:  "A handler registers the `/metrics` families of what it serves: in non-test root code only `newHandler` calls `observeStore`, `observeFederation`, `observeDetector`, `observeHub` or `observeRedial`.",
	checks: []archCheck{
		onlyIn("a part wired to /metrics", archInDir(""), func(at *archSite, n ast.Node) bool {
			return slices.ContainsFunc([]string{".observeStore", ".observeFederation", ".observeDetector", ".observeHub", ".observeRedial"},
				func(helper string) bool { return callOf(helper)(at, n) })
		}, "newHandler"),
	},
	breaks: archFixture("http.go", `package bgpblackholing
type Telemetry struct{}
type Detector struct{}
type HandlerOptions struct{ Telemetry *Telemetry; Detector *Detector }
func (t *Telemetry) observeDetector(d *Detector) {}
func newHandler(opts HandlerOptions) { opts.Telemetry.observeDetector(opts.Detector) }
func (d *Detector) Serve(t *Telemetry) { t.observeDetector(d); newHandler(HandlerOptions{t, d}) }`),
}, {
	name: "one-figure4-accumulator",
	law:  "Figure 4's day rule `floorDays` is called only by `Figure4Union.Observe`, and `NewFigure4Sets` only by `Figure4Union.Sets` and `StoreBackend.Figure4Sets`.",
	checks: []archCheck{
		onlyIn("a day bucketed", archInDir("internal/analysis"), callOf("floorDays"), "Figure4Union.Observe"),
		onlyIn("a Figure4Sets spelled", archNonTest, func(at *archSite, n ast.Node) bool {
			return callOf("NewFigure4Sets")(at, n) || callOf(".NewFigure4Sets")(at, n)
		}, "Figure4Union.Sets", "StoreBackend.Figure4Sets"),
	},
	breaks: archFixture(
		"internal/analysis/partial.go", `package analysis
import "time"
type Figure4Sets struct{}
type Figure4Union struct{ Start time.Time }
func floorDays(d time.Duration) int { return int(d / (24 * time.Hour)) }
func NewFigure4Sets() Figure4Sets { return Figure4Sets{} }
func (u *Figure4Union) Observe(end time.Time) { floorDays(end.Sub(u.Start)) }
func (u *Figure4Union) Sets() Figure4Sets { return NewFigure4Sets() }
type dayMaps struct{ start time.Time; prefixes []map[string]bool }
func (p *dayMaps) Observe(end time.Time, prefix string) { p.prefixes[floorDays(end.Sub(p.start))][prefix] = true }
func (p *dayMaps) Sets() Figure4Sets { return NewFigure4Sets() }`,
		"backend.go", `package bgpblackholing
import "bgpblackholing/internal/analysis"
type StoreBackend struct{}
func (b *StoreBackend) Figure4Sets() analysis.Figure4Sets { return analysis.NewFigure4Sets() }`),
}, {
	name: "one-read-walk",
	law:  "The store reads events one way: only its read walk calls `candidates` and `matches`.",
	checks: []archCheck{
		onlyIn("a candidates call", archInDir("internal/store"), callOf(".candidates"), "Store.walk"),
		onlyIn("a matches call", archInDir("internal/store"), callOf("matches"), "cursor.each"),
	},
	breaks: archFixture("internal/store/query.go", `package store
type Filter struct{}
type Store struct{ slots []*int }
type cursor struct{ f Filter; slots []*int }
func matches(ev *int, f Filter) bool { return ev != nil }
func (s *Store) candidates(f Filter) []int32 { return nil }
func (s *Store) walk(f Filter) cursor { s.candidates(f); return cursor{f, s.slots} }
func (c *cursor) each(yield func(*int) bool) {
	for _, ev := range c.slots { if matches(ev, c.f) && !yield(ev) { return } }
}
func (s *Store) Query(f Filter) (n int) {
	for _, ord := range s.candidates(f) { if matches(s.slots[ord], f) { n++ } }
	return n
}`),
}, {
	name: "one-aggregate-scan",
	law:  "The store's aggregates walk it one way: in the root package only `Store.scan` ranges over a store walk to aggregate, and `internal/analysis` declares no function over an `iter.Seq` of events.",
	checks: []archCheck{
		onlyIn("a QuerySeq walk", archInDir(""), callOf(".QuerySeq"), "Store.scan", "Store.QuerySeq", "StoreBackend.RecordLines"),
		onlyIn("an All walk", archInDir(""), callOf(".All"), "Store.stamp"),
		onlyIn("a function over an event sequence", archInDir("internal/analysis"), func(at *archSite, n ast.Node) bool {
			ft, ok := n.(*ast.FuncType)
			return ok && slices.ContainsFunc(ft.Params.List, func(p *ast.Field) bool {
				seq, ok := p.Type.(*ast.IndexExpr)
				if !ok || !pkgRef("iter", "Seq")(at, seq.X) {
					return false
				}
				ev, ok := seq.Index.(*ast.StarExpr)
				return ok && pkgRef(modulePath+"/internal/core", "Event")(at, ev.X)
			})
		}),
	},
	breaks: archFixture(
		"query.go", `package bgpblackholing
import ("iter"; "slices"; "bgpblackholing/internal/store")
type Store struct{ s *store.Store }
type StoreBackend struct{ st *Store }
func (st *Store) scan(observe func(*Event)) { for ev := range st.s.QuerySeq() { observe(ev) } }
func (st *Store) QuerySeq() iter.Seq[*Event] { return st.s.QuerySeq() }
func (b *StoreBackend) RecordLines() { b.st.s.QuerySeq() }
func (st *Store) stamp() { st.s.All() }
func (st *Store) Figure8() []*Event { return slices.Collect(st.s.All()) }
func (b *StoreBackend) LegitimacySummary() (n int) { for range b.st.s.QuerySeq() { n++ }; return n }`,
		"internal/analysis/figures.go", `package analysis
import ("iter"; "bgpblackholing/internal/core")
func Figure8(events []*core.Event) int { return len(events) }
func Figure8Seq(events iter.Seq[*core.Event]) (n int) { for range events { n++ }; return n }`),
}, {
	name: "one-query-codec",
	law:  "Text becomes a `Query` only in `ParseQuery`: no other non-test function sets a `Query` field from a parse of its own, except `FederatedStore.gather`, which narrows an LPM query to the prefix of the longest match's record key.",
	checks: []archCheck{
		onlyIn("a Query field parsed", archNonTest, parsesIntoQuery, "ParseQuery", "queryFields", "FederatedStore.gather"),
	},
	breaks: archFixture(
		"query.go", `package bgpblackholing
import ("net/url"; "strconv")
type Query struct{ Limit int }
var queryFields = []struct{ read func(q *Query, s string) error }{{func(q *Query, s string) (err error) { q.Limit, err = strconv.Atoi(s); return err }}}
func ParseQuery(v url.Values) (q Query, err error) { err = queryFields[0].read(&q, v.Get("limit")); return q, err }`,
		"federate.go", `package bgpblackholing
import "strconv"
type FederatedStore struct{}
func (f *FederatedStore) gather(q Query, key string) { q.Limit, _ = strconv.Atoi(key) }`,
		"cmd/bhquery/main.go", `package main
import ("strconv"; "bgpblackholing")
func query(limit string) (bgpblackholing.Query, error) {
	var q bgpblackholing.Query
	n, err := strconv.Atoi(limit)
	q.Limit = n
	return q, err
}`),
}, {
	name: "one-element-release",
	law:  "An element goes back one way: in non-test code only `Detector.Run` starts a release, and a `release` or `Release` method calls one only to pass on the element it was given.",
	checks: []archCheck{
		onlyIn("a release started", archNonTest, startsRelease, "Detector.Run"),
	},
	breaks: archFixture(
		"detector.go", `package bgpblackholing
type Elem struct{}
type releaser interface{ release(*Elem) }
type Detector struct{}
func (d *Detector) Run(src releaser, el *Elem) { src.release(el) }
func (d *Detector) SeedFromRIBDump(src releaser, el *Elem) { src.release(el) }`,
		"source.go", `package bgpblackholing
type mapSource struct{ src releaser; dropped *Elem }
func (m *mapSource) release(e *Elem) { m.src.release(e); m.src.release(m.dropped) }`),
}, {
	name:   "facade",
	gates:  "Facade gate",
	law:    "Nothing under `cmd/` or `examples/` imports a `bgpblackholing/internal/…` package.",
	checks: []archCheck{facadeOnly},
	breaks: archFixture("examples/quickstart/main.go", `package main; import "bgpblackholing/internal/store"; var open = store.Open`),
}, {
	name:   "docs-name-every-package",
	gates:  "Docs drift gate",
	law:    "Every `internal/*` package is named in README.md or `docs/`.",
	checks: []archCheck{docsNameEveryPackage},
	breaks: archFixture("internal/obs/obs.go", "package obs", "README.md", "Only internal/store is described here."),
}}
