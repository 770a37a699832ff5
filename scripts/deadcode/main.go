// Command deadcode is the dead-code scan of tier-1: go run ./scripts/deadcode [dir]
//
// It type-checks the non-test files of the module in dir, and of the
// modules nested in it (benchmark/) as callers only, and marks live by
// object, not by name, what the roots reach: main, init, the exported
// declarations of the root package (the public API) and the allowlist
// entries. A method of a live type is live when the type satisfies an
// interface that has it: one a reachable package declares, a literal, or
// the Is, As or Unwrap that errors.Is and errors.As assert. It reports each
// func and type that nothing live reaches; each unexported field no code
// reads (`x.f = v`, `x.f++` and `T{f: v}` write it; == on a struct, or a
// map keyed by it, reads all its fields); and each knob, an exported field
// of a *Config, *Options or *Policy struct that no code outside its package
// writes, outside knobExempt and the structs the root package re-exports.
// It fails on a finding its allowlist does not list, and on an entry that
// the scan without allowlist roots no longer finds.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	knobExempt = regexp.MustCompile(`^internal/(bench|baseline|workload)/`)
	knobType   = regexp.MustCompile(`(Config|Options|Policy)$`)
	moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)
	allowlists = []struct {
		file, kinds, reasons string
		max                  int
	}{
		{"scripts/deadapi_allowlist.txt", "func type field", "api|oracle|hook", 15},
		{"scripts/deadknob_allowlist.txt", "knob", "api|control", 10},
	}
)

// conventions declares the interfaces errors.Is and errors.As assert with
// anonymous types, which no package scope holds.
const conventions = `package c; type (i interface{ Is(error) bool }; a interface{ As(any) bool }
u interface{ Unwrap() error }; us interface{ Unwrap() []error })`

func main() {
	dir := "."
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	p, err := load(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	var bad []string
	listed := map[string]string{} // entry to its allowlist
	for _, a := range allowlists {
		b, _ := os.ReadFile(filepath.Join(dir, a.file)) // a missing list allows nothing
		n := 0
		for _, line := range strings.Split(string(b), "\n") {
			if key, why, _ := strings.Cut(line, " "); key != "" && key[0] != '#' {
				n, listed[key] = n+1, a.file
				if !regexp.MustCompile(`^(` + a.reasons + `):`).MatchString(why) {
					bad = append(bad, a.file+" gives "+key+" no reason of "+a.reasons)
				}
			}
		}
		if n > a.max {
			bad = append(bad, fmt.Sprintf("%s lists %d entries, at most %d may stay", a.file, n, a.max))
		}
	}
	found := map[string]bool{}
	for _, f := range p.findings(nil) {
		found[f[2]] = true
	}
	for _, f := range p.findings(listed) {
		for _, a := range allowlists {
			if strings.Contains(a.kinds, f[0]) && listed[f[2]] == "" {
				bad = append(bad, strings.Join(f, " ")+" is dead: delete it or list it in "+a.file)
			}
		}
	}
	for key, file := range listed {
		if !found[key] {
			bad = append(bad, file+" lists "+key+", which is gone or no longer dead: drop the entry")
		}
	}
	sort.Strings(bad)
	for _, s := range bad {
		fmt.Fprintln(os.Stderr, "deadcode:", s)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}

// decl is a top-level func, type spec, or var or const spec.
type decl struct {
	obj        types.Object // its first name
	dir        string       // its package's, relative to the root; "" if only a caller
	root, live bool
	refs       []types.Object // what it names, and the methods its type implements interfaces with
}

type program struct {
	root, mod   string
	fset        *token.FileSet
	info        *types.Info
	std         types.ImporterFrom
	files       map[string][]*ast.File // by import path
	pkgs        map[string]*types.Package
	decls       []*decl
	byObj       map[types.Object]*decl
	read, wrote map[*types.Var]bool // fields; wrote only from outside their package
}

func load(root string) (*program, error) {
	// The source importer reads build.Default: without cgo it checks net
	// and os/user from their pure-Go files and runs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	p := &program{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
		files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		byObj: map[types.Object]*decl{}, read: map[*types.Var]bool{}, wrote: map[*types.Var]bool{}}
	mods, dirs := map[string]string{}, map[string]string{} // module directory to path; import path to directory
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, file)
		rel = filepath.ToSlash(rel)
		if rel != "." && (d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")) {
			return filepath.SkipDir
		}
		if b, err := os.ReadFile(filepath.Join(file, "go.mod")); err == nil && moduleLine.Match(b) {
			mods[rel] = string(moduleLine.FindSubmatch(b)[1])
		}
		mod, dir := ".", rel
		for m := range mods {
			if m != "." && (rel == m || strings.HasPrefix(rel, m+"/")) {
				mod, dir = m, ""
			}
		}
		ip := path.Join(mods[mod], strings.TrimPrefix(rel, mod))
		bp, err := build.Default.ImportDir(file, 0)
		if _, none := err.(*build.NoGoError); err != nil && !none {
			return err
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(file, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files[ip], dirs[ip] = append(p.files[ip], f), dir
		}
		return nil
	})
	if p.mod = mods["."]; err == nil && p.mod == "" {
		err = fmt.Errorf("%s has no go.mod", root)
	}
	for ip := range p.files {
		if err == nil {
			_, err = p.ImportFrom(ip, "", 0)
		}
	}
	if err != nil {
		return nil, err
	}
	for ip := range p.files {
		for _, f := range p.files[ip] {
			p.collect(f, dirs[ip])
		}
	}
	p.implementations()
	return p, nil
}

func (p *program) Import(path string) (*types.Package, error) { return p.ImportFrom(path, "", 0) }

// ImportFrom type-checks a package of the tree once, and leaves every
// other import to the standard library's source importer.
func (p *program) ImportFrom(ip, dir string, mode types.ImportMode) (*types.Package, error) {
	if p.files[ip] == nil {
		return p.std.ImportFrom(ip, dir, mode)
	} else if p.pkgs[ip] != nil {
		return p.pkgs[ip], nil
	}
	p.pkgs[ip] = types.NewPackage(ip, "") // an import cycle fails the check
	pkg, err := (&types.Config{Importer: p}).Check(ip, p.fset, p.files[ip], p.info)
	p.pkgs[ip] = pkg
	return pkg, err
}

// collect records the top-level declarations of f and what each names,
// and the fields f reads and writes.
func (p *program) collect(f *ast.File, dir string) {
	for _, gd := range f.Decls {
		specs := []ast.Node{gd}
		if g, ok := gd.(*ast.GenDecl); ok {
			specs = nil
			for _, spec := range g.Specs {
				specs = append(specs, spec)
			}
		}
		for _, n := range specs {
			d := &decl{dir: dir, root: dir == ""}
			var names []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				names = []*ast.Ident{n.Name}
				d.root = d.root || n.Recv == nil && (n.Name.Name == "init" || n.Name.Name == "main" && f.Name.Name == "main")
			case *ast.TypeSpec:
				names = []*ast.Ident{n.Name}
			case *ast.ValueSpec:
				names = n.Names
			default:
				continue // an import
			}
			for _, name := range names {
				p.byObj[p.info.Defs[name]] = d
				d.root = d.root || name.Name == "_"
			}
			d.obj = p.info.Defs[names[0]]
			d.root = d.root || d.obj.Pkg().Path() == p.mod && exported(key(d.obj))
			p.decls = append(p.decls, d)
			p.scan(n, d)
		}
	}
}

// exported reports whether every name in key after the package is.
func exported(key string) bool {
	for _, name := range strings.Split(key, ".")[1:] {
		if !token.IsExported(name) {
			return false
		}
	}
	return true
}

func (p *program) scan(n ast.Node, d *decl) {
	written := map[*ast.Ident]bool{}
	write := func(e ast.Expr) {
		if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[se.Sel] = true
		}
	}
	wrote := func(v *types.Var) { p.wrote[v] = p.wrote[v] || v.Pkg() != d.obj.Pkg() }
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				write(e)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.CompositeLit:
			if st, ok := deref(p.info.TypeOf(n)).Underlying().(*types.Struct); ok {
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						written[kv.Key.(*ast.Ident)] = true
					} else {
						wrote(st.Field(i))
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				p.readAll(p.info.TypeOf(n.X))
			}
		case *ast.SelectorExpr: // x.f through an embedded field reads that field
			if sel := p.info.Selections[n]; sel != nil {
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if st, ok := deref(t).Underlying().(*types.Struct); ok {
						p.read[st.Field(i)], t = true, st.Field(i).Type()
					}
				}
			}
		case *ast.Ident:
			switch o := p.info.Uses[n].(type) {
			case *types.Var:
				if !o.IsField() {
					d.refs = append(d.refs, o)
				} else if written[n] {
					wrote(o.Origin())
				} else {
					p.read[o.Origin()] = true
				}
			case *types.Func:
				d.refs = append(d.refs, o.Origin())
			case types.Object:
				d.refs = append(d.refs, o)
			}
		}
		return true
	})
}

// readAll reads the fields of t and of the structs and arrays in it, as
// comparing t or keying a map by it does.
func (p *program) readAll(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !p.read[u.Field(i)] {
				p.read[u.Field(i)] = true
				p.readAll(u.Field(i).Type())
			}
		}
	case *types.Array:
		p.readAll(u.Elem())
	}
}

// implementations adds to each concrete type's refs the methods through
// which it satisfies an interface.
func (p *program) implementations() {
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if !seen[pkg] {
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
			for _, imp := range pkg.Imports() {
				walk(imp)
			}
		}
	}
	f, _ := parser.ParseFile(p.fset, "conventions.go", conventions, 0)
	conv, _ := new(types.Config).Check("c", p.fset, []*ast.File{f}, nil)
	walk(conv)
	for _, pkg := range p.pkgs {
		walk(pkg)
	}
	for _, tv := range p.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			ifaces = append(ifaces, it)
		} else if m, ok := tv.Type.Underlying().(*types.Map); ok {
			p.readAll(m.Key())
		}
	}
	for _, d := range p.decls {
		tn, isType := d.obj.(*types.TypeName)
		if !isType || tn.IsAlias() || types.IsInterface(tn.Type()) || tn.Type().(*types.Named).TypeParams() != nil {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
				d.refs = append(d.refs, m)
			}
		}
	}
}

// findings marks live what the roots and the listed keys reach, and
// reports the rest as {kind, path:line, key}.
func (p *program) findings(listed map[string]string) (out [][]string) {
	var work []*decl
	for _, d := range p.decls {
		if d.live = d.root || listed[key(d.obj)] != ""; d.live {
			work = append(work, d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range d.refs {
			if r := p.byObj[o]; r != nil && !r.live {
				r.live, work = true, append(work, r)
			}
		}
	}
	reexported := map[types.Object]bool{}
	for _, d := range p.decls {
		tn, isType := d.obj.(*types.TypeName)
		if n, ok := types.Unalias(d.obj.Type()).(*types.Named); ok && isType && tn.IsAlias() && tn.Pkg().Path() == p.mod {
			reexported[n.Obj()] = true
		}
	}
	report := func(kind string, o types.Object, key string) {
		pos := p.fset.Position(o.Pos())
		rel, _ := filepath.Rel(p.root, pos.Filename)
		out = append(out, []string{kind, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line), key})
	}
	for _, d := range p.decls {
		switch o := d.obj.(type) {
		case *types.Func:
			if !d.live && d.dir != "" {
				report("func", o, key(o))
			}
		case *types.TypeName:
			if !d.live && d.dir != "" {
				report("type", o, key(o))
			} else if st, ok := o.Type().Underlying().(*types.Struct); ok && d.dir != "" && !o.IsAlias() {
				for i := 0; i < st.NumFields(); i++ {
					if v := st.Field(i); !v.Exported() && !p.read[v] && v.Name() != "_" {
						report("field", v, key(o)+"."+v.Name())
					} else if v.Exported() && !p.wrote[v] && knobType.MatchString(o.Name()) &&
						!reexported[o] && !knobExempt.MatchString(d.dir+"/") {
						report("knob", v, key(o)+"."+v.Name())
					}
				}
			}
		}
	}
	return out
}

// key names an object `pkg.Name`, or `pkg.Recv.Name` for a method.
func key(o types.Object) string {
	s := o.Pkg().Path() + "." + o.Name()
	if fn, ok := o.(*types.Func); ok {
		s = strings.NewReplacer("(", "", ")", "", "*", "").Replace(fn.FullName())
	}
	return s[strings.LastIndex(s, "/")+1:]
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
