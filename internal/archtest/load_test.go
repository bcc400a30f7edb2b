package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// module is the import path of the repository root.  The benchmark's
// nested module, warp/benchmark, sits under it and is loaded with it.
const module = "warp"

// A pkg is one type-checked package: its non-test files, as the build
// for this host selects them.
type pkg struct {
	dir     string // module-relative and slash-separated: "internal/sim", "." for the root
	path    string // import path
	files   []*ast.File
	names   []string // each file's base name
	leftOut []string // the package clauses of the files build constraints leave out
	types   *types.Package
	info    *types.Info
	imports []string // the module packages its files import
	errs    []error  // its type errors
}

// fileNamed returns the file of p with base name name, or nil.
func (p *pkg) fileNamed(name string) *ast.File {
	if i := slices.Index(p.names, name); i >= 0 {
		return p.files[i]
	}
	return nil
}

// A loader parses and type-checks the packages of the repository with the
// standard library alone.  It is the types.Importer of every package it
// checks: module packages are served from the ones it has checked, the
// standard library from source by importer.ForCompiler, whose cache
// makes each standard package's objects one and the same for all.
type loader struct {
	root  string
	fset  *token.FileSet
	ctxt  build.Context
	std   types.ImporterFrom
	pkgs  map[string]*pkg // by dir
	tests map[string][]string
}

func newLoader(root string) *loader {
	// The source importer builds with build.Default: without cgo every
	// standard package type-checks from its Go files alone, and no C
	// toolchain is run.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		root:  root,
		fset:  fset,
		ctxt:  build.Default,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  map[string]*pkg{},
		tests: map[string][]string{},
	}
}

// dirOf maps an import path of the repository to its directory.
func dirOf(importPath string) (dir string, ok bool) {
	if importPath == module {
		return ".", true
	}
	return strings.CutPrefix(importPath, module+"/")
}

func pathOf(dir string) string {
	if dir == "." {
		return module
	}
	return module + "/" + dir
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	dir, ok := dirOf(path)
	if !ok {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	p, err := l.load(dir)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// loadAll loads every package of the repository: each directory with
// non-test Go files, testdata and hidden directories left out.
func (l *loader) loadAll() (map[string]*pkg, error) {
	err := filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		_, err = l.load(filepath.ToSlash(rel))
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		return err
	})
	return l.pkgs, err
}

// load parses and checks the package in dir once.
func (l *loader) load(dir string) (*pkg, error) {
	if p, ok := l.pkgs[dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p, nil
	}
	l.pkgs[dir] = nil
	bp, err := l.ctxt.ImportDir(filepath.Join(l.root, filepath.FromSlash(dir)), 0)
	if err == nil && len(bp.GoFiles) == 0 { // test files alone
		err = &build.NoGoError{Dir: bp.Dir}
	}
	if err != nil {
		delete(l.pkgs, dir)
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := l.parse(dir, name, nil)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p := l.check(dir, bp.GoFiles, files)
	for _, name := range bp.IgnoredGoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, dir, name), nil, parser.PackageClauseOnly)
		if err != nil {
			return nil, err
		}
		p.leftOut = append(p.leftOut, f.Name.Name)
	}
	l.pkgs[dir] = p
	return p, nil
}

// parse parses one file of dir, from src when it is not nil.
func (l *loader) parse(dir, name string, src []byte) (*ast.File, error) {
	var text any // a nil []byte would parse as an empty file
	if src != nil {
		text = src
	}
	return parser.ParseFile(l.fset, filepath.Join(l.root, filepath.FromSlash(dir), name), text, parser.SkipObjectResolution)
}

// check type-checks files as the package in dir.  Its type errors are
// kept, not returned: the rules still read what checked.
func (l *loader) check(dir string, names []string, files []*ast.File) *pkg {
	p := &pkg{
		dir:   dir,
		path:  pathOf(dir),
		files: files,
		names: names,
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{Importer: l, Error: func(err error) { p.errs = append(p.errs, err) }}
	p.types, _ = conf.Check(p.path, l.fset, files, p.info)
	for _, f := range files {
		for _, spec := range f.Imports {
			imp := strings.Trim(spec.Path.Value, `"`)
			if _, ok := dirOf(imp); ok && !slices.Contains(p.imports, imp) {
				p.imports = append(p.imports, imp)
			}
		}
	}
	return p
}

// testNames returns the Test and Fuzz functions the _test.go files of dir
// declare.
func (l *loader) testNames(dir string) ([]string, error) {
	if names, ok := l.tests[dir]; ok {
		return names, nil
	}
	abs := filepath.Join(l.root, filepath.FromSlash(dir))
	matches, err := filepath.Glob(filepath.Join(abs, "*_test.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		if _, err := os.Stat(abs); err != nil {
			return nil, err
		}
	}
	var names []string
	fset := token.NewFileSet()
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	l.tests[dir] = names
	return names, nil
}

// A world is the repository as the rules read it: every package, and
// the CI workflow.
type world struct {
	l    *loader
	pkgs map[string]*pkg // by dir
	ci   string          // .github/workflows/ci.yml
}

// ciFile is the workflow the CI row reads, relative to the root.
const ciFile = ".github/workflows/ci.yml"

func loadWorld(root string) (*world, error) {
	l := newLoader(root)
	pkgs, err := l.loadAll()
	if err != nil {
		return nil, err
	}
	ci, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(ciFile)))
	if err != nil {
		return nil, err
	}
	return &world{l: l, pkgs: pkgs, ci: string(ci)}, nil
}

// dirs returns the world's package directories in order.
func (w *world) dirs() []string {
	dirs := make([]string, 0, len(w.pkgs))
	for d := range w.pkgs {
		dirs = append(dirs, d)
	}
	slices.Sort(dirs)
	return dirs
}

// with returns a copy of w that holds p in place of the package in its
// directory.
func (w *world) with(p *pkg) *world {
	c := *w
	c.pkgs = make(map[string]*pkg, len(w.pkgs)+1)
	for d, q := range w.pkgs {
		c.pkgs[d] = q
	}
	c.pkgs[p.dir] = p
	return &c
}

// pos returns the repository-relative position of pos.
func (w *world) pos(pos token.Pos) string {
	p := w.l.fset.Position(pos)
	if rel, err := filepath.Rel(w.l.root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// A report collects one rule's findings.
type report struct {
	w     *world
	finds []string
}

func (r *report) at(pos token.Pos, format string, args ...any) {
	r.errorf("%s: %s", r.w.pos(pos), fmt.Sprintf(format, args...))
}

// errorf adds a finding once.
func (r *report) errorf(format string, args ...any) {
	if f := fmt.Sprintf(format, args...); !slices.Contains(r.finds, f) {
		r.finds = append(r.finds, f)
	}
}

// pkg returns the package in dir, reporting a scope that no longer exists.
func (r *report) pkg(dir string) *pkg {
	p := r.w.pkgs[dir]
	if p == nil {
		r.errorf("scope: package %s does not exist", dir)
	}
	return p
}

// file returns the file called name of the package in dir, reporting a
// scope that no longer exists.
func (r *report) file(dir, name string) *ast.File {
	p := r.pkg(dir)
	if p == nil {
		return nil
	}
	f := p.fileNamed(name)
	if f == nil {
		r.errorf("scope: file %s/%s does not exist", dir, name)
	}
	return f
}

// fn returns the function or method (funcName's form) the package in dir
// declares, and the base name of its file, reporting a scope that no
// longer exists.
func (r *report) fn(dir, name string) (*ast.FuncDecl, string) {
	p := r.pkg(dir)
	if p == nil {
		return nil, ""
	}
	for i, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == name {
				return fd, p.names[i]
			}
		}
	}
	r.errorf("scope: %s declares no %s", dir, name)
	return nil, ""
}

// obj returns the package-level object name of the package in dir,
// reporting a scope that no longer exists.
func (r *report) obj(dir, name string) types.Object {
	p := r.pkg(dir)
	if p == nil {
		return nil
	}
	o := p.types.Scope().Lookup(name)
	if o == nil {
		r.errorf("scope: %s declares no %s", dir, name)
	}
	return o
}

// std returns the object name of the standard package path.
func (r *report) std(path, name string) types.Object {
	p, err := r.w.l.std.ImportFrom(path, r.w.l.root, 0)
	if err != nil {
		r.errorf("scope: %v", err)
		return nil
	}
	o := p.Scope().Lookup(name)
	if o == nil {
		r.errorf("scope: %s declares no %s", path, name)
	}
	return o
}

// funcName names a declared function as the rules do: "Load", or
// "(*Loaded).prepare" for a method, type parameters left out.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t, star := d.Recv.List[0].Type, ""
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, "*"
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, _ := t.(*ast.Ident)
	if id == nil {
		return d.Name.Name
	}
	return "(" + star + id.Name + ")." + d.Name.Name
}

// A site is where a node sits: its package, file and top-level function.
type site struct {
	p    *pkg
	file string // base name
	fn   string // funcName of the enclosing declaration, "" outside any function
}

// inspect calls visit on every node of p with the site it sits at.
func (p *pkg) inspect(visit func(s site, n ast.Node)) {
	for i, f := range p.files {
		s := site{p: p, file: p.names[i]}
		for _, d := range f.Decls {
			s.fn = ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				s.fn = funcName(fd)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					visit(s, n)
				}
				return true
			})
		}
	}
}

// named returns the named type t denotes, through aliases and one
// pointer, as its generic origin; nil if t is not one.
func named(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}
