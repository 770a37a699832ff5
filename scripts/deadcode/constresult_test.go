package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// constResultAllowed lists the constant results that stay, each with the
// reason the result cannot go.
var constResultAllowed = map[string]string{
	// benchmark/rung_streamobj.go binds `o, err := store.Create(...)`: the
	// nil error goes with the next change to the benchmark.
	"streamobj.Store.Create": "pinned by benchmark/rung_streamobj.go",
}

// constResults reports each function of the non-test files under root,
// outside benchmark/ and testdata, whose every return statement gives a
// literal nil for an error result or a literal 0 for a time.Duration
// result: a result no code path produces. Names are pkg.Func or
// pkg.Type.Method.
func constResults(t *testing.T, root string) []string {
	t.Helper()
	var found []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != root && (name == "benchmark" || name == "testdata" || strings.ContainsAny(name[:1], "._")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Type.Results == nil {
				continue
			}
			if constResult(fn) {
				found = append(found, funcName(f.Name.Name, fn))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// constResult reports whether some error or time.Duration result of fn is
// the same literal in every one of its return statements.
func constResult(fn *ast.FuncDecl) bool {
	var kinds []string // per result position: "nil", "0" or ""
	for _, field := range fn.Type.Results.List {
		lit := ""
		switch typ := field.Type.(type) {
		case *ast.Ident:
			if typ.Name == "error" {
				lit = "nil"
			}
		case *ast.SelectorExpr:
			if x, ok := typ.X.(*ast.Ident); ok && x.Name == "time" && typ.Sel.Name == "Duration" {
				lit = "0"
			}
		}
		for n := max(len(field.Names), 1); n > 0; n-- {
			kinds = append(kinds, lit)
		}
	}
	var returns []*ast.ReturnStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			returns = append(returns, n)
		}
		return true
	})
	if len(returns) == 0 {
		return false
	}
	for i, lit := range kinds {
		if lit == "" {
			continue
		}
		constant := true
		for _, r := range returns {
			if len(r.Results) != len(kinds) || !isLiteral(r.Results[i], lit) {
				constant = false
				break
			}
		}
		if constant {
			return true
		}
	}
	return false
}

func isLiteral(e ast.Expr, lit string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == lit
	case *ast.BasicLit:
		return e.Value == lit
	}
	return false
}

func funcName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	return pkg + "." + types.ExprString(typ) + "." + fn.Name.Name
}

// TestNoConstantResults keeps deleted what no code path produces: an error
// result that is nil on every return, a time.Duration that is 0 on every
// return. Callers that check or add such a result carry dead code.
func TestNoConstantResults(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range constResults(t, filepath.Join("..", "..")) {
		seen[name] = true
		if constResultAllowed[name] == "" {
			t.Errorf("%s returns a constant nil error or zero duration: drop the result", name)
		}
	}
	for name, why := range constResultAllowed {
		if !seen[name] {
			t.Errorf("%s (%s) no longer returns a constant result: drop it from constResultAllowed", name, why)
		}
	}
}

// TestConstantResultScanFindsPlanted shows the scan fails a planted
// constant: a nil error, a zero duration, a named result, and not a result
// that some return sets.
func TestConstantResultScanFindsPlanted(t *testing.T) {
	dir := t.TempDir()
	src := `package plant

import (
	"errors"
	"time"
)

type Store struct{}

func (s *Store) Put(k string) error {
	if k == "" {
		return nil
	}
	return nil
}

func Cost() (n int, d time.Duration) { return 1, 0 }

func Live(k string) (int, error) {
	if k == "" {
		return 0, errors.New("empty")
	}
	return 1, nil
}

func Closure() error {
	f := func() error { return errors.New("inner") }
	_ = f
	return nil
}
`
	if err := os.MkdirAll(filepath.Join(dir, "benchmark"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plant.go", "benchmark/plant.go"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(constResults(t, dir), " ")
	if want := "plant.Store.Put plant.Cost plant.Closure"; got != want {
		t.Fatalf("found %q, want %q", got, want)
	}
}
