package bgpblackholing

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// modulePath is this module's import path (go.mod).
const modulePath = "bgpblackholing"

// goModule is the module's Go source, parsed without type checking, for
// the tests that read its structure (TestEveryReaderIsFuzzed,
// TestArchitecture): every file outside bench/ (its own module), testdata
// and hidden directories, tests included.
type goModule struct {
	fsys   fs.FS
	fset   *token.FileSet
	files  []*goFile
	funcs  []*goFunc
	byKey  map[string][]*goFunc      // dir.F, or dir.T.M for a method → its declarations
	byDecl map[*ast.FuncDecl]*goFunc // the same functions, by declaration
	byName map[string][]*goFunc      // M → every method named M, any receiver
	types  map[string]*goType        // dir.T → its declaration
	vars   map[string]typeRef        // dir.v → a package-level variable's spelled or literal type
}

// goFile is one parsed file; dir is its slash-separated directory, ""
// for the root package.
type goFile struct {
	path, dir string
	syntax    *ast.File
	imports   map[string]string // local name → import path
	test      bool
}

// goFunc is a top-level function or method with a body; name is F, or
// T.M for a method.
type goFunc struct {
	file *goFile
	name string
	decl *ast.FuncDecl
}

func (f *goFunc) key() string { return f.file.dir + "." + f.name }

func (f *goFunc) String() string { return strings.TrimPrefix(f.key(), ".") }

// goType is a top-level type declaration.
type goType struct {
	file *goFile
	spec *ast.TypeSpec
}

// typeRef is a type expression in the file that spells it. std marks a
// value known to come from outside the module (a standard-library call's
// result, a literal) whose type was not spelled; the zero typeRef is a
// type nobody could tell.
type typeRef struct {
	file *goFile
	expr ast.Expr
	std  bool
}

// moduleDir maps an import path inside the module to its directory.
func moduleDir(importPath string) (string, bool) {
	if importPath == modulePath {
		return "", true
	}
	return strings.CutPrefix(importPath, modulePath+"/")
}

// rootModule is the module the tests run in, parsed once.
var rootModule = sync.OnceValues(func() (*goModule, error) { return loadGoModule(os.DirFS(".")) })

// loadGoModule parses every Go file of the module rooted at fsys.
func loadGoModule(fsys fs.FS) (*goModule, error) {
	m := &goModule{
		fsys: fsys, fset: token.NewFileSet(),
		byKey: map[string][]*goFunc{}, byDecl: map[*ast.FuncDecl]*goFunc{}, byName: map[string][]*goFunc{},
		types: map[string]*goType{}, vars: map[string]typeRef{},
	}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		syntax, err := parser.ParseFile(m.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.add(&goFile{path: p, dir: strings.TrimPrefix(path.Dir(p), "."), syntax: syntax, imports: map[string]string{}, test: strings.HasSuffix(p, "_test.go")})
		return nil
	})
	return m, err
}

// add indexes one parsed file.
func (m *goModule) add(f *goFile) {
	for _, im := range f.syntax.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		f.imports[name] = p
	}
	m.files = append(m.files, f)
	for _, decl := range f.syntax.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Body == nil {
				continue
			}
			fn := &goFunc{f, declName(decl), decl}
			m.funcs = append(m.funcs, fn)
			m.byKey[fn.key()] = append(m.byKey[fn.key()], fn)
			m.byDecl[decl] = fn
			if decl.Recv != nil {
				m.byName[decl.Name.Name] = append(m.byName[decl.Name.Name], fn)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					m.types[f.dir+"."+spec.Name.Name] = &goType{f, spec}
				case *ast.ValueSpec:
					for i, name := range spec.Names {
						switch {
						case spec.Type != nil:
							m.vars[f.dir+"."+name.Name] = typeRef{file: f, expr: spec.Type}
						case i < len(spec.Values):
							if lit, ok := ast.Unparen(spec.Values[i]).(*ast.CompositeLit); ok && lit.Type != nil {
								m.vars[f.dir+"."+name.Name] = typeRef{file: f, expr: lit.Type}
							}
						}
					}
				}
			}
		}
	}
}

// declName is F, or T.M for a method on T or *T (T[P] for a generic T).
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch ix := typ.(type) {
	case *ast.IndexExpr:
		typ = ix.X
	case *ast.IndexListExpr:
		typ = ix.X
	}
	return typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// pos is n's file:line.
func (m *goModule) pos(n ast.Node) string {
	p := m.fset.Position(n.Pos())
	return p.Filename + ":" + strconv.Itoa(p.Line)
}

// The resolver below follows names to their declarations inside the
// module, from what the source spells, without type checking: a type
// from outside the module is a leaf, and what the spelling does not tell
// stays unknown.

var predeclaredTypes = map[string]bool{
	"any": true, "bool": true, "byte": true, "comparable": true, "complex64": true, "complex128": true,
	"error": true, "float32": true, "float64": true, "int": true, "int8": true, "int16": true,
	"int32": true, "int64": true, "rune": true, "string": true, "uint": true, "uint8": true,
	"uint16": true, "uint32": true, "uint64": true, "uintptr": true,
	// and the builtins whose results are predeclared types
	"len": true, "cap": true, "copy": true, "min": true, "max": true, "real": true, "imag": true,
	"complex": true, "recover": true,
}

// bareType strips a type expression's pointers, parentheses and type
// arguments.
func bareType(x ast.Expr) ast.Expr {
	for {
		switch y := x.(type) {
		case *ast.StarExpr:
			x = y.X
		case *ast.ParenExpr:
			x = y.X
		case *ast.IndexExpr:
			x = y.X
		case *ast.IndexListExpr:
			x = y.X
		default:
			return x
		}
	}
}

// embeddedName is the field name an embedded type gets.
func embeddedName(x ast.Expr) string {
	switch x := bareType(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// named is the module type t names, as dir.T; std reports a type from
// outside the module or a predeclared one, whose methods are leaves.
func (m *goModule) named(t typeRef) (key string, std bool) {
	if t.std {
		return "", true
	}
	if t.expr == nil {
		return "", false
	}
	switch x := bareType(t.expr).(type) {
	case *ast.Ident:
		if m.types[t.file.dir+"."+x.Name] != nil {
			return t.file.dir + "." + x.Name, false
		}
		return "", predeclaredTypes[x.Name]
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok {
			if p, ok := t.file.imports[pkg.Name]; ok {
				if dir, ok := moduleDir(p); ok {
					return dir + "." + x.Sel.Name, false
				}
				return "", true
			}
		}
	}
	return "", false
}

// stdGeneric reports whether t instantiates a generic type from outside
// the module (atomic.Pointer[T], iter.Seq[T]): its methods and ranges
// yield its type arguments, which may be the module's.
func (m *goModule) stdGeneric(t typeRef) bool {
	x := t.expr
	for {
		switch y := x.(type) {
		case *ast.StarExpr:
			x = y.X
			continue
		case *ast.ParenExpr:
			x = y.X
			continue
		case *ast.IndexExpr, *ast.IndexListExpr:
			_, std := m.named(t)
			return std
		}
		return false
	}
}

// sameType reports whether a and b name one module type, or are both
// from outside the module, or hold the same elements.
func (m *goModule) sameType(a, b typeRef) bool {
	ka, sa := m.named(a)
	kb, sb := m.named(b)
	switch {
	case sa || sb:
		return sa && sb
	case ka != "" || kb != "":
		return ka == kb
	}
	ea, eb := m.elem(a), m.elem(b)
	return (ea.expr != nil || ea.std) && (eb.expr != nil || eb.std) && m.sameType(ea, eb)
}

// lit is the type literal t stands for: t itself, or the definition of
// the module type it names, followed through named types and aliases.
func (m *goModule) lit(t typeRef) typeRef {
	for i := 0; i < 8 && t.expr != nil; i++ {
		switch x := bareType(t.expr).(type) {
		case *ast.StructType, *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType, *ast.Ellipsis:
			return typeRef{file: t.file, expr: x}
		}
		key, _ := m.named(t)
		d := m.types[key]
		if d == nil {
			break
		}
		t = typeRef{file: d.file, expr: d.spec.Type}
	}
	return typeRef{}
}

// field is the type of t's field name, a promoted one included.
func (m *goModule) field(t typeRef, name string) (typeRef, bool) {
	return m.fieldIn(t, name, 0)
}

func (m *goModule) fieldIn(t typeRef, name string, depth int) (typeRef, bool) {
	l := m.lit(t)
	st, ok := l.expr.(*ast.StructType)
	if !ok || depth > 4 {
		return typeRef{}, false
	}
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 && embeddedName(f.Type) == name || slices.ContainsFunc(f.Names, func(n *ast.Ident) bool { return n.Name == name }) {
			return typeRef{file: l.file, expr: f.Type}, true
		}
	}
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			if ft, ok := m.fieldIn(typeRef{file: l.file, expr: f.Type}, name, depth+1); ok {
				return ft, true
			}
		}
	}
	return typeRef{}, false
}

// method is the declaration of t's method name, a promoted one included;
// std reports that the method comes from outside the module.
func (m *goModule) method(t typeRef, name string) (*goFunc, bool) {
	return m.methodIn(t, name, 0)
}

func (m *goModule) methodIn(t typeRef, name string, depth int) (*goFunc, bool) {
	key, std := m.named(t)
	d := m.types[key]
	if std || d == nil || depth > 4 {
		return nil, std
	}
	if d.spec.Assign != 0 {
		return m.methodIn(typeRef{file: d.file, expr: d.spec.Type}, name, depth+1)
	}
	if fns := m.byKey[key+"."+name]; len(fns) > 0 {
		return fns[0], false
	}
	st, ok := d.spec.Type.(*ast.StructType)
	if !ok {
		return nil, false
	}
	fromStd := false
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			fn, std := m.methodIn(typeRef{file: d.file, expr: f.Type}, name, depth+1)
			if fn != nil {
				return fn, false
			}
			fromStd = fromStd || std
		}
	}
	return nil, fromStd
}

// elem is the element type of a slice, array, map (its value), channel or
// variadic parameter; an element of an outside type is outside too.
func (m *goModule) elem(t typeRef) typeRef {
	if m.stdGeneric(t) {
		return typeRef{}
	}
	if _, std := m.named(t); std {
		return typeRef{std: true}
	}
	l := m.lit(t)
	switch x := l.expr.(type) {
	case *ast.ArrayType:
		return typeRef{file: l.file, expr: x.Elt}
	case *ast.Ellipsis:
		return typeRef{file: l.file, expr: x.Elt}
	case *ast.MapType:
		return typeRef{file: l.file, expr: x.Value}
	case *ast.ChanType:
		return typeRef{file: l.file, expr: x.Value}
	}
	return typeRef{}
}

// ranged is what a range over a value of type t binds: key and value.
func (m *goModule) ranged(t typeRef) (key, val typeRef) {
	if m.stdGeneric(t) {
		return typeRef{}, typeRef{}
	}
	if _, std := m.named(t); std {
		return typeRef{std: true}, typeRef{std: true}
	}
	l := m.lit(t)
	switch x := l.expr.(type) {
	case *ast.ArrayType, *ast.Ellipsis:
		return typeRef{std: true}, m.elem(t)
	case *ast.MapType:
		return typeRef{file: l.file, expr: x.Key}, typeRef{file: l.file, expr: x.Value}
	case *ast.ChanType:
		return m.elem(t), typeRef{}
	}
	return typeRef{}, typeRef{}
}

// fnEnv binds the names a function declares to the types its spelling
// gives them: the receiver and parameters, var declarations, := from a
// literal, a conversion or a call whose result type the module declares,
// and range variables. A name bound to two different types is unknown.
type fnEnv struct {
	m    *goModule
	file *goFile
	vars map[string]typeRef
}

func (m *goModule) env(fn *goFunc) *fnEnv {
	e := &fnEnv{m: m, file: fn.file, vars: map[string]typeRef{}}
	for _, fl := range []*ast.FieldList{fn.decl.Recv, fn.decl.Type.Params, fn.decl.Type.Results} {
		e.fields(fl)
	}
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			e.fields(n.Type.Params)
			e.fields(n.Type.Results)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				switch {
				case n.Type != nil:
					e.bind(name, typeRef{file: e.file, expr: n.Type})
				case len(n.Values) == len(n.Names):
					e.bind(name, e.typeOf(n.Values[i]))
				case len(n.Values) == 1:
					e.bind(name, e.resultOf(n.Values[0], i))
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if len(n.Rhs) == len(n.Lhs) {
					e.bind(lhs, e.typeOf(n.Rhs[i]))
				} else {
					e.bind(lhs, e.resultOf(n.Rhs[0], i))
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				key, val := e.m.ranged(e.typeOf(n.X))
				e.bind(n.Key, key)
				e.bind(n.Value, val)
			}
		}
		return true
	})
	return e
}

func (e *fnEnv) fields(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, name := range f.Names {
			e.bind(name, typeRef{file: e.file, expr: f.Type})
		}
	}
}

// bind gives the name x the type t.
func (e *fnEnv) bind(x ast.Expr, t typeRef) {
	id, ok := x.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if old, ok := e.vars[id.Name]; ok && !e.m.sameType(old, t) {
		t = typeRef{}
	}
	e.vars[id.Name] = t
}

// imported is the import path x names, when x is a package name no local
// shadows.
func (e *fnEnv) imported(x ast.Expr) (string, bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, local := e.vars[id.Name]; local {
		return "", false
	}
	p, ok := e.file.imports[id.Name]
	return p, ok
}

// typeOf is x's type, as far as the function's spelling tells it.
func (e *fnEnv) typeOf(x ast.Expr) typeRef {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		if t, ok := e.vars[x.Name]; ok {
			return t
		}
		return e.m.vars[e.file.dir+"."+x.Name]
	case *ast.BasicLit:
		return typeRef{std: true}
	case *ast.CompositeLit:
		if x.Type != nil {
			return typeRef{file: e.file, expr: x.Type}
		}
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return e.typeOf(x.X)
		case token.ARROW:
			return e.m.elem(e.typeOf(x.X))
		}
	case *ast.StarExpr:
		return e.typeOf(x.X)
	case *ast.SelectorExpr:
		if p, ok := e.imported(x.X); ok {
			if dir, ok := moduleDir(p); ok {
				return e.m.vars[dir+"."+x.Sel.Name]
			}
			return typeRef{std: true}
		}
		recv := e.typeOf(x.X)
		if t, ok := e.m.field(recv, x.Sel.Name); ok {
			return t
		}
		if _, std := e.m.named(recv); std {
			return typeRef{std: true}
		}
	case *ast.IndexExpr:
		return e.m.elem(e.typeOf(x.X))
	case *ast.SliceExpr:
		return e.typeOf(x.X)
	case *ast.TypeAssertExpr:
		if x.Type != nil {
			return typeRef{file: e.file, expr: x.Type}
		}
	case *ast.CallExpr:
		return e.resultOf(x, 0)
	}
	return typeRef{}
}

// resultOf is the type of the i-th value x yields: a call's i-th result;
// otherwise x itself, then a comma-ok's bool.
func (e *fnEnv) resultOf(x ast.Expr, i int) typeRef {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		if i == 0 {
			return e.typeOf(x)
		}
		return typeRef{std: true}
	}
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr: // an instantiation, F[T](…)
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if _, local := e.vars[f.Name]; local {
			return typeRef{}
		}
		switch f.Name {
		case "new", "make":
			return typeRef{file: e.file, expr: call.Args[0]}
		case "append":
			return e.typeOf(call.Args[0])
		}
		if t, ok := e.m.result(e.file, e.file.dir, f.Name, f, i); ok {
			return t
		}
		if predeclaredTypes[f.Name] {
			return typeRef{std: true}
		}
	case *ast.SelectorExpr:
		if p, ok := e.imported(f.X); ok {
			if dir, ok := moduleDir(p); ok {
				t, _ := e.m.result(e.file, dir, f.Sel.Name, f, i)
				return t
			}
			return typeRef{std: true}
		}
		recv := e.typeOf(f.X)
		fn, std := e.m.method(recv, f.Sel.Name)
		switch {
		case fn != nil:
			return resultType(fn, i)
		case std && !e.m.stdGeneric(recv):
			return typeRef{std: true}
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType, *ast.StarExpr:
		return typeRef{file: e.file, expr: fun} // a conversion
	}
	return typeRef{}
}

// result is the i-th result of the module function dir.name, or the type
// dir.name itself when fun converts to it.
func (m *goModule) result(in *goFile, dir, name string, fun ast.Expr, i int) (typeRef, bool) {
	if fns := m.byKey[dir+"."+name]; len(fns) > 0 {
		return resultType(fns[0], i), true
	}
	if m.types[dir+"."+name] != nil {
		return typeRef{file: in, expr: fun}, true
	}
	return typeRef{}, false
}

// calls walks fn's signature and body. visit gets every module function
// it names or calls: a method call goes to the receiver type's method
// where the spelling tells the type, to nothing on a value from outside
// the module, and to every method of that name where the type is unknown.
// outside gets every member of a package from outside the module it names.
func (m *goModule) calls(fn *goFunc, visit func(*goFunc), outside func(importPath string, sel *ast.SelectorExpr)) {
	e := m.env(fn)
	visitAll := func(gs []*goFunc) {
		for _, g := range gs {
			visit(g)
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if p, ok := e.imported(n.X); ok {
				if dir, ok := moduleDir(p); ok {
					visitAll(m.byKey[dir+"."+n.Sel.Name])
				} else {
					outside(p, n)
				}
				return false
			}
			recv := e.typeOf(n.X)
			if g, std := m.method(recv, n.Sel.Name); g != nil {
				visit(g)
			} else if _, isField := m.field(recv, n.Sel.Name); !std && !isField {
				visitAll(m.byName[n.Sel.Name])
			}
			ast.Inspect(n.X, walk)
			return false
		case *ast.KeyValueExpr:
			if _, ok := n.Key.(*ast.Ident); ok { // a field name, not a reference
				ast.Inspect(n.Value, walk)
				return false
			}
		case *ast.Ident:
			if _, local := e.vars[n.Name]; !local {
				visitAll(m.byKey[fn.file.dir+"."+n.Name])
			}
		}
		return true
	}
	ast.Inspect(fn.decl.Type, walk)
	ast.Inspect(fn.decl.Body, walk)
}

// resultType is fn's i-th result type.
func resultType(fn *goFunc, i int) typeRef {
	if fn.decl.Type.Results != nil {
		for _, f := range fn.decl.Type.Results.List {
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			if i < n {
				return typeRef{file: fn.file, expr: f.Type}
			}
			i -= n
		}
	}
	return typeRef{}
}
