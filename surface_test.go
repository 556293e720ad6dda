package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDeclarationsHaveNonTestUses pins the surface rule (DESIGN.md §4):
// a package-level func, type, alias, var, const or method under
// internal/, exported or not, is referenced from a file that is not a
// _test.go file, and a struct field is read — an exported one outside
// tests, an unexported one anywhere in its package. Access that only a
// package's tests need lives in its export_test.go. cmd/, examples/ and
// bench/ (the benchmark module, which imports this one) count as users.
func TestDeclarationsHaveNonTestUses(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := srcPkgs{}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return loadDir(fset, pkgs, dir)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	unused, err := scanSurface(fset, pkgs, "repro/internal/")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s has no non-test caller or reader", u)
	}
}

// TestScanSurfaceFixture runs the scan on a two-package module parsed
// from strings, so a scan that flags nothing fails here: a field that is
// only written (assigned, op=, ++, a literal key, self-appended) is
// flagged, and a tagged field or one whose address is taken is not.
func TestScanSurfaceFixture(t *testing.T) {
	files := map[string]string{
		"fix/a/a.go": `package a
type T struct {
	Kept, TestOnly int
	Tagged         int ` + "`json:\"tagged\"`" + `
	addressed      int
	tested         int
	written        int
	log            []int
}
func (T) String() string { return "t" }
func (T) NextDeadline(now int64) int64 { return now }
func (T) Unreached() {}
func New() T { return T{Kept: 1, written: 1} }
func (t *T) Note(v int) *int {
	t.written = v
	t.written += v
	t.written++
	t.log = append(t.log, v)
	return &t.addressed
}
func OnlyTested() {}
func onlyTested() {}
func Recursive(n int) int { if n == 0 { return 0 }; return Recursive(n - 1) }
`,
		"fix/a/a_test.go": `package a
func useInTest() {
	OnlyTested(); onlyTested(); _ = T{}.TestOnly; _ = T{}.tested; T{}.Unreached(); Recursive(1)
}
`,
		"fix/b/b.go": `package b
import "repro/fix/a"
func Poll(x any) int64 {
	if d, ok := x.(interface{ NextDeadline(int64) int64 }); ok {
		return d.NextDeadline(0)
	}
	t := a.New()
	return int64(t.Kept + *t.Note(1))
}
`,
	}
	fset := token.NewFileSet()
	pkgs := srcPkgs{}
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs.add("repro/"+filepath.Dir(name), f)
	}
	unused, err := scanSurface(fset, pkgs, "repro/fix/a")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u[strings.LastIndex(u, " ")+1:])
	}
	sort.Strings(got)
	want := "a.OnlyTested a.Recursive a.T.TestOnly a.T.Unreached a.T.log a.T.written a.onlyTested"
	if g := strings.Join(got, " "); g != want {
		t.Fatalf("scan flagged %q, want %q", g, want)
	}
}

// A srcPkg is one directory's parsed Go files: the package as its own
// tests compile it (non-test files and in-package _test.go files), and
// its external _test package.
type srcPkg struct {
	files, xtest []*ast.File
}

type srcPkgs map[string]*srcPkg

func (m srcPkgs) add(path string, f *ast.File) {
	p := m[path]
	if p == nil {
		p = &srcPkg{}
		m[path] = p
	}
	if strings.HasSuffix(f.Name.Name, "_test") {
		p.xtest = append(p.xtest, f)
	} else {
		p.files = append(p.files, f)
	}
}

// loadDir parses the Go files of dir that the default build context
// selects, under import path "repro/"+dir.
func loadDir(fset *token.FileSet, pkgs srcPkgs, dir string) error {
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil
	}
	if err != nil {
		return err
	}
	names := append(append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...), bp.XTestGoFiles...)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs.add("repro/"+filepath.ToSlash(dir), f)
	}
	return nil
}

// A scan type-checks every package once against one importer, so a
// reference from any package resolves to the object its declaring
// package defined.
type scan struct {
	fset    *token.FileSet
	pkgs    srcPkgs
	std     types.Importer
	checked map[string]*types.Package
	info    *types.Info
}

func (s *scan) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	src, ok := s.pkgs[path]
	if !ok {
		if strings.HasPrefix(path, "repro/") {
			return nil, fmt.Errorf("package %s not loaded", path)
		}
		return s.std.Import(path)
	}
	return s.check(path, src.files)
}

func (s *scan) check(path string, files []*ast.File) (*types.Package, error) {
	s.checked[path] = nil // an import cycle finds nil and fails
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.checked[path] = p
	return p, nil
}

func (s *scan) nonTest(pos token.Pos) bool {
	return !strings.HasSuffix(s.fset.Position(pos).Filename, "_test.go")
}

// scanSurface returns, in source order, each identifier declared in a
// non-test file of a package whose import path starts with owned that
// is unused, as "file:line: pkg.Name". `_`, init and main are exempt.
// A declaration is used when a non-test file references it; a reference
// from inside the identifier's own declaration (a recursive call, a
// method's receiver naming its type) does not count. A struct field is
// used only where it is read: outside tests for an exported field,
// anywhere for an unexported one, and always when it carries a tag,
// which encoding/json reads by reflection. A method also
// counts as called when its receiver type satisfies an interface with a
// method of that name that appears in non-test code — a named or
// anonymous interface type, in a signature the code calls, or error and
// fmt.Stringer, which the standard library asserts on any value it is
// handed.
func scanSurface(fset *token.FileSet, pkgs srcPkgs, owned string) ([]string, error) {
	s := &scan{
		fset:    fset,
		pkgs:    pkgs,
		std:     importer.ForCompiler(fset, "source", nil),
		checked: map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
		if x := pkgs[path].xtest; len(x) > 0 {
			if _, err := s.check(path+"_test", x); err != nil {
				return nil, err
			}
		}
	}

	// What the surface declares, and the extent of each declaration.
	type decl struct {
		label    string
		obj      types.Object
		from, to token.Pos
	}
	var decls []decl
	var named []*types.TypeName
	own := map[*ast.Ident]types.Object{} // receiver idents: part of their type's declaration
	declOf := map[types.Object]decl{}
	for _, path := range paths {
		for _, f := range pkgs[path].files {
			if !s.nonTest(f.Pos()) {
				continue
			}
			surface := strings.HasPrefix(path, owned)
			pkg := f.Name.Name + "."
			add := func(label string, id *ast.Ident, from, to token.Pos) {
				obj := s.info.Defs[id]
				d := decl{pkg + label, obj, from, to}
				declOf[obj] = d
				if surface && id.Name != "_" && id.Name != "init" && id.Name != "main" {
					decls = append(decls, d)
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					label := d.Name.Name
					if d.Recv != nil {
						id := recvIdent(d.Recv.List[0].Type)
						own[id] = s.info.Uses[id]
						label = id.Name + "." + label
					}
					add(label, d.Name, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name.Name, spec.Name, spec.Pos(), spec.End())
							if tn, ok := s.info.Defs[spec.Name].(*types.TypeName); ok {
								named = append(named, tn)
							}
							var members []*ast.Field
							switch t := spec.Type.(type) {
							case *ast.StructType:
								members = t.Fields.List
							case *ast.InterfaceType:
								members = t.Methods.List
							}
							for _, m := range members {
								if m.Tag != nil {
									continue // encoding/json reads a tagged field by reflection
								}
								for _, id := range m.Names {
									add(spec.Name.Name+"."+id.Name, id, id.Pos(), id.End())
								}
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id.Name, id, id.Pos(), id.End())
							}
						}
					}
				}
			}
		}
	}

	// A field is used only where it is read: an assignment's target, an
	// op=, ++ or -- operand, a composite-literal key and the x.f of
	// x.f = append(x.f, ...) only write it.
	writes := map[*ast.Ident]bool{}
	isField := func(id *ast.Ident) bool {
		v, ok := s.info.Uses[id].(*types.Var)
		return ok && v.IsField()
	}
	write := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok && isField(sel.Sel) {
			writes[sel.Sel] = true
		}
	}
	appendFn := types.Universe.Lookup("append")
	for _, p := range pkgs {
		for _, f := range append(p.files[:len(p.files):len(p.files)], p.xtest...) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						write(lhs)
						if len(n.Rhs) != len(n.Lhs) {
							continue
						}
						if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 {
							fn, _ := call.Fun.(*ast.Ident)
							if s.info.Uses[fn] == appendFn && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
								write(call.Args[0])
							}
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && isField(id) {
								writes[id] = true
							}
						}
					}
				}
				return true
			})
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range s.info.Uses {
		obj = origin(obj)
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			// An unexported field may be read by its package's tests.
			if !writes[id] && (s.nonTest(id.Pos()) || !v.Exported()) {
				used[obj] = true
			}
			continue
		}
		if !s.nonTest(id.Pos()) || own[id] == obj {
			continue
		}
		if d, ok := declOf[obj]; ok && d.from <= id.Pos() && id.Pos() < d.to {
			continue
		}
		used[obj] = true
	}
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		case *types.Interface:
			ifaces = append(ifaces, t)
		case *types.Map:
			collect(t.Key())
			collect(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			collect(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tup.Len() {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	for expr, tv := range s.info.Types {
		if s.nonTest(expr.Pos()) {
			collect(tv.Type)
		}
	}
	collect(types.Universe.Lookup("error").Type())
	fmtPkg, err := s.std.Import("fmt")
	if err != nil {
		return nil, err
	}
	collect(fmtPkg.Scope().Lookup("Stringer").Type())
	for _, tn := range named {
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	var unused []string
	for _, d := range decls {
		if !used[d.obj] {
			unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(d.from), d.label))
		}
	}
	return unused, nil
}

// recvIdent returns the type name of a method receiver expression.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return x.(*ast.Ident)
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
