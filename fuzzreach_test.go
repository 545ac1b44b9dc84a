package bgpblackholing

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
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
	type fn struct {
		dir, name string // name is F, or Recv.M for a method
		decl      *ast.FuncDecl
		imports   map[string]string // local import name → module dir
		test      bool
	}
	var fns []*fn
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "bgpblackholing")
			if !ok || dir != "" && dir[0] != '/' {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(dir, "/")
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				name = typ.(*ast.Ident).Name + "." + name
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if dir == "." {
				dir = ""
			}
			fns = append(fns, &fn{dir, name, fd, imports, strings.HasSuffix(path, "_test.go")})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	byKey := map[string][]*fn{}    // dir.F → functions
	byMethod := map[string][]*fn{} // M → methods named M, any receiver
	for _, f := range fns {
		byKey[f.dir+"."+f.name] = append(byKey[f.dir+"."+f.name], f)
		if i := strings.IndexByte(f.name, '.'); i >= 0 {
			byMethod[f.name[i+1:]] = append(byMethod[f.name[i+1:]], f)
		}
	}
	reached := map[*fn]bool{}
	var queue []*fn
	visit := func(gs []*fn) {
		for _, g := range gs {
			if !reached[g] {
				reached[g] = true
				queue = append(queue, g)
			}
		}
	}
	for _, f := range fns {
		if f.test && strings.HasPrefix(f.name, "Fuzz") {
			visit([]*fn{f})
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				visit(byKey[f.dir+"."+n.Name])
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := f.imports[x.Name]; ok {
						visit(byKey[dir+"."+n.Sel.Name])
						return false
					}
				}
				visit(byMethod[n.Sel.Name])
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
	for _, f := range fns {
		last := f.name[strings.LastIndexByte(f.name, '.')+1:]
		if f.test || !ast.IsExported(last) || !ast.IsExported(f.name) || !readsBytes(f.decl.Type) ||
			!slices.ContainsFunc([]string{"Parse", "Load", "Unmarshal", "Decode", "Read"}, func(p string) bool { return strings.HasPrefix(last, p) }) {
			continue
		}
		key := f.dir + "." + f.name
		readers = append(readers, key)
		_, listed := notFuzzed[key]
		if body := f.decl.Body.List; len(body) == 1 {
			if ret, ok := body[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				if call, ok := ret.Results[0].(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok {
							if dir, ok := f.imports[x.Name]; ok && len(byKey[dir+"."+sel.Sel.Name]) == 1 {
								f = byKey[dir+"."+sel.Sel.Name][0]
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
