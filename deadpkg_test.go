package etalstm

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loadSources parses every non-test Go file under root that the host's
// build context selects, keyed by import path: module joined with the
// directory's path under root. Directories named testdata or starting
// with "." or "_" are skipped, as the go tool skips them.
func loadSources(fset *token.FileSet, root, module string) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		pkgs[ip] = append(pkgs[ip], f)
		return nil
	})
	return pkgs, err
}

// repoSources parses the module's packages, the nested perfbench
// module included: its import paths sit under this module's, so its
// uses of internal/ resolve to the same packages.
func repoSources(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	pkgs, err := loadSources(fset, ".", "etalstm")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestNoUnreachableInternalPackages fails when an internal/ package is
// linked by no program: no import chain of non-test files leads to it
// from the root package etalstm or from a main package under cmd/,
// examples/ or perfbench/. Such a package is kept alive only by its own
// tests and drifts from the code that ships.
func TestNoUnreachableInternalPackages(t *testing.T) {
	// internal/check is the test oracle: only tests import it.
	exempt := map[string]bool{"etalstm/internal/check": true}

	pkgs := repoSources(t, token.NewFileSet())
	var roots []string
	for ip, files := range pkgs {
		top, _, _ := strings.Cut(strings.TrimPrefix(ip, "etalstm/"), "/")
		if ip == "etalstm" || (files[0].Name.Name == "main" && (top == "cmd" || top == "examples" || top == "perfbench")) {
			roots = append(roots, ip)
		}
	}

	reached := map[string]bool{}
	for queue := roots; len(queue) > 0; queue = queue[1:] {
		if reached[queue[0]] {
			continue
		}
		reached[queue[0]] = true
		for _, f := range pkgs[queue[0]] {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				queue = append(queue, ip)
			}
		}
	}

	var dead []string
	for pkg := range pkgs {
		if strings.HasPrefix(pkg, "etalstm/internal/") && !reached[pkg] && !exempt[pkg] {
			dead = append(dead, pkg)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("internal packages no program imports (delete them, or link them from a binary):\n\t%s",
			strings.Join(dead, "\n\t"))
	}
}

// unusedExportAllow lists the exported identifiers in internal/ that no
// program uses but that stay, each with its reason. Keys are as
// unusedExports reports them.
var unusedExportAllow = map[string]string{
	"etalstm/internal/tensor.(*Matrix).Equal":        "bitwise comparison shared by the tests of tensor, lstm, model, dist and the root package",
	"etalstm/internal/persist.Load":                  "FuzzLoad's entry point: the checkpoint decoder as hostile bytes reach it, without the file and digest layers",
	"etalstm/internal/compress.(*Feedback).Residual": "dist's codec and fuzz tests check error-feedback conservation (sent + residual = input) through it",
	"etalstm/internal/rtrace.SetDefault":             "core's trace tests install a tracer and restore the disabled default",
}

// TestNoUnusedInternalExports fails on every exported top-level func,
// method, type, var or const in internal/ that no non-test file of the
// module (perfbench/ included) uses outside its own declaration. Such an
// identifier is API that only its tests call. A method that satisfies an
// interface declared in the module or in a standard package it imports
// counts as used. internal/check, the test oracle, is exempt, and so is
// each entry of unusedExportAllow.
func TestNoUnusedInternalExports(t *testing.T) {
	fset := token.NewFileSet()
	unused, err := unusedExports(fset, repoSources(t, fset), "etalstm/internal/")
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[string]bool{}
	for _, id := range unused {
		seen[id] = true
		if _, ok := unusedExportAllow[id]; !ok && !strings.HasPrefix(id, "etalstm/internal/check.") {
			bad = append(bad, id)
		}
	}
	for id := range unusedExportAllow {
		if !seen[id] {
			t.Errorf("allow-list entry %s is used by a program now: remove it from unusedExportAllow", id)
		}
	}
	if len(bad) > 0 {
		t.Fatalf("exported identifiers in internal/ that no program uses (delete them, unexport them, or allow-list them with a reason):\n\t%s",
			strings.Join(bad, "\n\t"))
	}
}

// TestUnusedExportsFixture runs the analysis over testdata/unusedexports,
// whose internal/lib declares one identifier per case the gate must
// tell apart: a dead func (that calls itself), a func only its test
// calls, a method satisfying fmt.Stringer, a method satisfying an
// interface the fixture declares, and a func only a main package calls.
func TestUnusedExportsFixture(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadSources(fset, filepath.Join("testdata", "unusedexports"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got, err := unusedExports(fset, pkgs, "fixture/internal/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture/internal/lib.Dead", "fixture/internal/lib.TestOnly"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unused exports = %q, want %q", got, want)
	}
}

// unusedExports type-checks pkgs and returns, sorted, every exported
// top-level identifier declared in a package whose path starts with
// prefix and used nowhere in pkgs outside its own declaration. A method
// is named as pkg.(*T).M or pkg.T.M, by its receiver.
func unusedExports(fset *token.FileSet, pkgs map[string][]*ast.File, prefix string) ([]string, error) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	imp := &sourceImporter{fset: fset, pkgs: pkgs, info: info, std: importer.Default(), checked: map[string]*types.Package{}}
	paths := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}

	// The candidates, with the source range of each declaration: a use
	// inside it (recursion, a method's own receiver) does not count.
	type span struct{ pos, end token.Pos }
	decl := map[types.Object][]span{}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, prefix) {
			continue
		}
		for _, f := range pkgs[ip] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					if d.Name.IsExported() {
						decl[obj] = append(decl[obj], span{d.Pos(), d.End()})
					}
					if d.Recv != nil {
						// A receiver names its type without using it.
						if id := receiverTypeIdent(d.Recv.List[0].Type); id != nil {
							if obj := info.Uses[id]; obj != nil && obj.Exported() {
								decl[obj] = append(decl[obj], span{id.Pos(), id.End()})
							}
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decl[info.Defs[s.Name]] = append(decl[info.Defs[s.Name]], span{s.Pos(), s.End()})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decl[info.Defs[n]] = append(decl[info.Defs[n]], span{s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if spans, ok := decl[obj]; ok && !used[obj] {
			inside := false
			for _, s := range spans {
				inside = inside || (s.pos <= id.Pos() && id.Pos() < s.end)
			}
			used[obj] = !inside
		}
	}

	ifaces := imp.interfaces()
	var unused []string
	for obj := range decl {
		if used[obj] {
			continue
		}
		name := obj.Pkg().Path() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				unused = append(unused, name)
				continue
			}
			if satisfiesInterface(fn, recv.Type(), ifaces) {
				continue
			}
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			tn := rt.(*types.Named).Obj().Name()
			if rt != recv.Type() {
				tn = "(*" + tn + ")"
			}
			name = obj.Pkg().Path() + "." + tn + "." + obj.Name()
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	return unused, nil
}

// receiverTypeIdent returns the type name of a method receiver: T in
// T, *T, T[P] and *T[P].
func receiverTypeIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfiesInterface reports whether method fn is part of the method
// set by which its receiver's type (or a pointer to it) implements one
// of ifaces.
func satisfiesInterface(fn *types.Func, recv types.Type, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == fn.Name()
		}
		if has && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// sourceImporter type-checks the module's packages from source, in
// import order, recording every use into one types.Info. Standard
// packages come from the toolchain's export data.
type sourceImporter struct {
	fset    *token.FileSet
	pkgs    map[string][]*ast.File
	info    *types.Info
	std     types.Importer
	checked map[string]*types.Package
}

func (s *sourceImporter) Import(ip string) (*types.Package, error) {
	if p, ok := s.checked[ip]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return p, nil
	}
	files, ok := s.pkgs[ip]
	if !ok {
		p, err := s.std.Import(ip)
		if err == nil {
			s.checked[ip] = p
		}
		return p, err
	}
	s.checked[ip] = nil
	conf := types.Config{Importer: s}
	p, err := conf.Check(ip, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.checked[ip] = p
	return p, nil
}

// stdProtocols declares the method sets that the standard library
// asserts on without naming a type for them: errors.Unwrap, Is and As.
const stdProtocols = `package protocols

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

// interfaces returns every interface type the checked packages declare
// or spell out, and every named interface of the standard packages
// reachable from them. The empty interface is left out: it names no
// method.
func (s *sourceImporter) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range s.checked {
		if p != nil {
			walk(p)
		}
	}
	f, err := parser.ParseFile(s.fset, "protocols.go", stdProtocols, 0)
	if err != nil {
		panic(err)
	}
	p, err := (&types.Config{}).Check("protocols", s.fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	walk(p)
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range s.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	return out
}
