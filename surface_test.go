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

// TestExportedIdentifiersHaveNonTestCallers pins the surface rule: an
// exported identifier under internal/ — a func, type, alias, var, const,
// method or struct field — is referenced from a file that is not a
// _test.go file. Access that only a package's tests need lives in its
// export_test.go. cmd/, examples/ and bench/ (the benchmark module, which
// imports this one) count as callers.
func TestExportedIdentifiersHaveNonTestCallers(t *testing.T) {
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
		t.Errorf("%s has no non-test caller", u)
	}
}

// TestScanSurfaceFixture runs the scan on a two-package module parsed
// from strings, so a scan that flags nothing fails here.
func TestScanSurfaceFixture(t *testing.T) {
	files := map[string]string{
		"fix/a/a.go": `package a
type T struct{ Kept, TestOnly int }
func (T) String() string { return "t" }
func (T) NextDeadline(now int64) int64 { return now }
func (T) Unreached() {}
func New() T { return T{Kept: 1} }
func OnlyTested() {}
func Recursive(n int) int { if n == 0 { return 0 }; return Recursive(n - 1) }
`,
		"fix/a/a_test.go": `package a
func useInTest() { OnlyTested(); _ = T{}.TestOnly; T{}.Unreached(); Recursive(1) }
`,
		"fix/b/b.go": `package b
import "repro/fix/a"
func Poll(x any) int64 {
	if d, ok := x.(interface{ NextDeadline(int64) int64 }); ok {
		return d.NextDeadline(0)
	}
	return int64(a.New().Kept)
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
	want := "a.OnlyTested a.Recursive a.T.TestOnly a.T.Unreached"
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

// scanSurface returns, in source order, each exported identifier
// declared in a non-test file of a package whose import path starts
// with owned that no non-test file references, as "file:line: pkg.Name". A reference
// from inside the identifier's own declaration (a recursive call, a
// method's receiver naming its type) does not count. A method also
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
				if surface && id.IsExported() {
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

	used := map[types.Object]bool{}
	for id, obj := range s.info.Uses {
		obj = origin(obj)
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
