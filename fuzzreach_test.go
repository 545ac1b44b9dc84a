package bgpblackholing

import (
	"go/ast"
	"slices"
	"strings"
	"testing"
)

// notFuzzed lists the exported readers of outside bytes that no Fuzz*
// target reaches, each with the reason it needs none. Keep it short: a
// new reader gets a fuzz target, not a line here.
var notFuzzed = map[string]string{
	".ParseCompactionPolicy": "operator flag spec (bhserve -compact-policy, bhquery -compact), never read from a peer, a file or the wire",
	".ParseSyncPolicy":       "operator flag spec (bhserve -sync-policy), never read from a peer, a file or the wire",
}

// TestEveryReaderIsFuzzed walks the module's non-test packages (bench/ is
// its own module) for the exported Parse*, Load*, Unmarshal*, Decode* and
// Read* functions and methods that take []byte, string or io.Reader, and
// requires each to be reached from some Fuzz* target, or to sit on
// notFuzzed. Reach is a name-level call graph over every file, tests
// included: an unqualified name is a function of the same package, pkg.F
// the imported package's F, and any other x.M every method named M — an
// over-approximation, so a reader that passes is at least named on a
// path from a fuzz target. A facade function whose body is return pkg.F(…)
// is reached when pkg.F is.
func TestEveryReaderIsFuzzed(t *testing.T) {
	m, err := rootModule()
	if err != nil {
		t.Fatal(err)
	}
	// moduleImport is the module directory a file's import name stands for.
	moduleImport := func(f *goFunc, name string) (string, bool) {
		if p, ok := f.file.imports[name]; ok {
			return moduleDir(p)
		}
		return "", false
	}
	reached := map[*goFunc]bool{}
	var queue []*goFunc
	visit := func(gs []*goFunc) {
		for _, g := range gs {
			if !reached[g] {
				reached[g] = true
				queue = append(queue, g)
			}
		}
	}
	for _, f := range m.funcs {
		if f.file.test && strings.HasPrefix(f.name, "Fuzz") {
			visit([]*goFunc{f})
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				visit(m.byKey[f.file.dir+"."+n.Name])
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := moduleImport(f, x.Name); ok {
						visit(m.byKey[dir+"."+n.Sel.Name])
						return false
					}
				}
				visit(m.byName[n.Sel.Name])
			}
			return true
		})
	}

	readsBytes := func(ft *ast.FuncType) bool {
		for _, p := range ft.Params.List {
			switch typ := p.Type.(type) {
			case *ast.Ident:
				if typ.Name == "string" {
					return true
				}
			case *ast.ArrayType:
				if elt, ok := typ.Elt.(*ast.Ident); ok && typ.Len == nil && elt.Name == "byte" {
					return true
				}
			case *ast.SelectorExpr:
				if x, ok := typ.X.(*ast.Ident); ok && x.Name == "io" && typ.Sel.Name == "Reader" {
					return true
				}
			}
		}
		return false
	}
	var readers []string
	for _, f := range m.funcs {
		last := f.name[strings.LastIndexByte(f.name, '.')+1:]
		if f.file.test || !ast.IsExported(last) || !ast.IsExported(f.name) || !readsBytes(f.decl.Type) ||
			!slices.ContainsFunc([]string{"Parse", "Load", "Unmarshal", "Decode", "Read"}, func(p string) bool { return strings.HasPrefix(last, p) }) {
			continue
		}
		key := f.key()
		readers = append(readers, key)
		_, listed := notFuzzed[key]
		if body := f.decl.Body.List; len(body) == 1 {
			if ret, ok := body[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				if call, ok := ret.Results[0].(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok {
							if dir, ok := moduleImport(f, x.Name); ok && len(m.byKey[dir+"."+sel.Sel.Name]) == 1 {
								f = m.byKey[dir+"."+sel.Sel.Name][0]
							}
						}
					}
				}
			}
		}
		switch {
		case !reached[f] && !listed:
			t.Errorf("%s reads outside bytes and no Fuzz* target reaches it: add one, or list it in notFuzzed with the reason", key)
		case reached[f] && listed:
			t.Errorf("%s is reached by a Fuzz* target: drop it from notFuzzed", key)
		}
	}
	for key := range notFuzzed {
		if !slices.Contains(readers, key) {
			t.Errorf("notFuzzed lists %s, which is not an exported reader of []byte, string or io.Reader", key)
		}
	}
	if len(readers) < 10 {
		t.Fatalf("found only %d readers: the walk is broken", len(readers))
	}
}
