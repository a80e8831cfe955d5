package etalstm

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreachableInternalPackages fails when an internal/ package is
// linked by no program: no import chain of non-test files leads to it
// from the root package etalstm or from a main package under cmd/,
// examples/ or perfbench/. Such a package is kept alive only by its own
// tests and drifts from the code that ships.
func TestNoUnreachableInternalPackages(t *testing.T) {
	// internal/check is the test oracle: only tests import it.
	exempt := map[string]bool{"etalstm/internal/check": true}

	imports := map[string][]string{} // import path -> imported paths
	var roots []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := path.Join("etalstm", dir)
		if _, seen := imports[pkg]; !seen {
			imports[pkg] = nil
			top, _, _ := strings.Cut(dir, "/")
			if dir == "." || (f.Name.Name == "main" && (top == "cmd" || top == "examples" || top == "perfbench")) {
				roots = append(roots, pkg)
			}
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imports[pkg] = append(imports[pkg], ip)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[string]bool{}
	for queue := roots; len(queue) > 0; queue = queue[1:] {
		if reached[queue[0]] {
			continue
		}
		reached[queue[0]] = true
		queue = append(queue, imports[queue[0]]...)
	}

	var dead []string
	for pkg := range imports {
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
