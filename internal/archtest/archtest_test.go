// Package archtest holds the architecture of the compiler and its
// executors as one table of rules over the repository's types: the
// "one of each" designs (one lowering, one op stream, one run record,
// one walk of the loop nest, one emitter, one fork-join), the keys the
// front end and the code generators index by, the import closure of the
// production commands, and CI's lists of tests.  It loads every non-test
// package of the repository, the benchmark's nested module included,
// with go/build, go/parser and go/types and the standard library's
// source importer: no go list, no download.
//
// Each rule names its scope, and a scope that no longer exists fails the
// rule.  Each rule has fixtures: violations planted in the packages it
// covers, each of which it must flag.
package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	headOnce sync.Once
	headW    *world
	headErr  error
)

// head loads the repository as it stands, once for every test.
func head(t *testing.T) *world {
	t.Helper()
	headOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			headErr = err
			return
		}
		headW, headErr = loadWorld(root)
	})
	if headErr != nil {
		t.Fatal(headErr)
	}
	return headW
}

// run returns rl's findings on w.
func run(w *world, rl rule) []string {
	r := &report{w: w}
	rl.check(r)
	return r.finds
}

// TestTypeChecks requires every package to type-check as the loader
// reads it: a rule read off a package that does not check may miss what
// it should flag.
func TestTypeChecks(t *testing.T) {
	w := head(t)
	for _, dir := range w.dirs() {
		for _, err := range w.pkgs[dir].errs {
			t.Errorf("%s: %v", dir, err)
		}
	}
}

// TestRules holds the repository to every rule.
func TestRules(t *testing.T) {
	w := head(t)
	for _, rl := range rules {
		t.Run(rl.name, func(t *testing.T) {
			for _, f := range run(w, rl) {
				t.Error(f)
			}
		})
	}
}

// A fixture is a violation planted in the package a rule covers: a file
// of its own, or statements at the top of one function's body.
type fixture struct {
	name      string
	dir       string // the package it is planted in (ciFile's directory: src is appended to the workflow)
	file      string // a new file of the package, whose source is src
	fn        string // or the function (funcName's form) whose body src opens
	breakRecv bool   // with fn: its receiver list is broken across lines as well
	src       string
}

// plant returns w with f planted in it.
func plant(w *world, f fixture) (*world, error) {
	if f.dir+"/"+f.file == ciFile {
		c := *w
		c.ci += f.src
		return &c, nil
	}
	var old pkg
	if p := w.pkgs[f.dir]; p != nil {
		old = *p
	}
	files, names := slices.Clone(old.files), slices.Clone(old.names)
	if f.fn == "" {
		if old.fileNamed(f.file) != nil {
			return nil, fmt.Errorf("%s/%s exists", f.dir, f.file)
		}
		file, err := w.l.parse(f.dir, f.file, []byte(f.src))
		if err != nil {
			return nil, err
		}
		files, names = append(files, file), append(names, f.file)
	} else {
		r := &report{w: w}
		decl, name := r.fn(f.dir, f.fn)
		if decl == nil {
			return nil, errors.New(strings.Join(r.finds, "; "))
		}
		path := filepath.Join(w.l.root, filepath.FromSlash(f.dir), name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		off := func(pos token.Pos) int { return w.l.fset.Position(pos).Offset }
		body := off(decl.Body.Lbrace) + 1
		text := string(src[:body]) + "\n" + f.src + "\n" + string(src[body:])
		if f.breakRecv {
			open, end := off(decl.Recv.Opening)+1, off(decl.Recv.Closing)
			text = text[:open] + "\n\t" + text[open:end] + ",\n" + text[end:]
		}
		file, err := w.l.parse(f.dir, name, []byte(text))
		if err != nil {
			return nil, err
		}
		files[slices.Index(names, name)] = file
	}
	p := w.l.check(f.dir, names, files)
	if len(p.errs) > 0 {
		return nil, errors.Join(p.errs...)
	}
	p.leftOut = old.leftOut
	return w.with(p), nil
}

// flagged returns the findings that are not about the rule's scope.
func flagged(finds []string) []string {
	return slices.DeleteFunc(slices.Clone(finds), func(f string) bool { return strings.HasPrefix(f, "scope:") })
}

// TestFixturesFlagged plants each rule's fixtures, one at a time, and
// requires the rule to flag each.
func TestFixturesFlagged(t *testing.T) {
	w := head(t)
	for _, rl := range rules {
		if len(rl.fixtures) == 0 {
			t.Errorf("%s: no fixture", rl.name)
		}
		for _, f := range rl.fixtures {
			t.Run(rl.name+"/"+f.name, func(t *testing.T) {
				fw, err := plant(w, f)
				if err != nil {
					t.Fatalf("planting in %s: %v", f.dir, err)
				}
				finds := run(fw, rl)
				if len(flagged(finds)) == 0 {
					t.Fatalf("%q does not flag %s in %s (%v)", rl.name, f.name, f.dir, finds)
				}
				for _, s := range finds {
					t.Log(s)
				}
			})
		}
	}
}

// TestScopesMustExist takes away a function or a file a rule names: the
// rule fails, naming its scope, where a text match would match nothing
// and pass.
func TestScopesMustExist(t *testing.T) {
	w := head(t)
	for _, c := range []struct{ rule, dir, file, fn string }{
		{rule: "every fast executor body runs the plan's ops", dir: fastDir, fn: "(*Plan).runCell"},
		{rule: "every simulator body runs the decoded ops", dir: simDir, fn: "(*group).issue"},
		{rule: "one lowering: one decode", dir: simDir, fn: "(*Loaded).prepare"},
		{rule: "one walk of the loop nest", dir: "internal/iugen", fn: "(*genState).mirrorItems"},
		{rule: "the dependence graph keys by node ids", dir: "internal/opt", file: "global.go"},
		{rule: "one fork-join", dir: simDir, file: "spare.go"},
	} {
		i := slices.IndexFunc(rules, func(rl rule) bool { return rl.name == c.rule })
		if i < 0 {
			t.Errorf("no rule %q", c.rule)
			continue
		}
		p := *w.pkgs[c.dir]
		p.files, p.names = slices.Clone(p.files), slices.Clone(p.names)
		if k := slices.Index(p.names, c.file); k >= 0 {
			p.files, p.names = slices.Delete(p.files, k, k+1), slices.Delete(p.names, k, k+1)
		}
		for k, f := range p.files {
			for j, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == c.fn {
					renamed, file := *fd, *f
					renamed.Name = ast.NewIdent(fd.Name.Name + "Renamed")
					file.Decls = slices.Clone(f.Decls)
					file.Decls[j] = &renamed
					p.files[k] = &file
				}
			}
		}
		finds := run(w.with(&p), rules[i])
		if len(finds) == len(flagged(finds)) {
			t.Errorf("%q passes without %s%s in %s: %v", c.rule, c.file, c.fn, c.dir, finds)
		}
	}
}
