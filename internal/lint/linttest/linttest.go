// Package linttest is a small, dependency-free stand-in for
// golang.org/x/tools/go/analysis/analysistest (whose loader,
// go/packages, is not vendored): it loads GOPATH-style fixture packages
// from a testdata/src tree, runs one analyzer over them, and compares
// the diagnostics against // want annotations in the fixture source.
//
// Fixture layout and annotation syntax match analysistest:
//
//	testdata/src/<pkg>/<files>.go
//	code()   // want `regexp` "another regexp"
//
// Every diagnostic must be matched by a want annotation on its line and
// every annotation must match at least one diagnostic. Imports inside a
// fixture resolve first against sibling fixture packages under
// testdata/src (so fixtures can import a trimmed-down "simnet"
// stand-in), then against the standard library via the source importer.
//
// Analyzers with Requires and object FactTypes are supported: the
// requirement closure runs bottom-up over the fixture import graph, and
// object facts exported on one fixture package are visible (after a gob
// round-trip, mimicking the unitchecker's .vetx serialization) when a
// downstream fixture is analyzed. Package facts are not carried: no
// analyzer in this repository uses them. Diagnostics are only checked
// for the packages named in the Run call; dependency diagnostics are
// dropped, as `go vet` drops them for non-target packages.
package linttest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads each fixture package below filepath.Join(testdata, "src")
// and checks a's diagnostics on it against the // want annotations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ld := &loader{
		fset:     token.NewFileSet(),
		root:     filepath.Join(testdata, "src"),
		loaded:   make(map[string]*fixture),
		imported: make(map[string]*types.Package),
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)
	d := newDriver(ld)
	for _, pkg := range pkgs {
		fx, err := ld.load(pkg)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
		diags, err := d.run(a, fx)
		if err != nil {
			t.Fatalf("%s on %s: %v", a.Name, fx.path, err)
		}
		checkDiagnostics(t, ld.fset, fx, diags)
	}
}

// fixture is one type-checked testdata package.
type fixture struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	fset     *token.FileSet
	root     string
	std      types.Importer
	loaded   map[string]*fixture
	imported map[string]*types.Package
}

// Import resolves fixture-local packages first, then the stdlib, so
// that ld can serve as the types.Importer for its own fixtures.
func (ld *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := ld.imported[path]; ok {
		return pkg, nil
	}
	if st, err := os.Stat(filepath.Join(ld.root, path)); err == nil && st.IsDir() {
		fx, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return fx.pkg, nil
	}
	pkg, err := ld.std.Import(path)
	if err == nil {
		ld.imported[path] = pkg
	}
	return pkg, err
}

func (ld *loader) load(path string) (*fixture, error) {
	if fx, ok := ld.loaded[path]; ok {
		return fx, nil
	}
	dir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	fx := &fixture{path: path, files: files, pkg: pkg, info: info}
	ld.loaded[path] = fx
	ld.imported[path] = pkg
	return fx, nil
}

// driver executes analyzers over the fixture import graph, memoizing
// per (analyzer, package) and carrying facts across packages the way
// the unitchecker carries them across compilation units.
type driver struct {
	ld       *loader
	done     map[driverKey]*action
	objFacts map[objFactKey]analysis.Fact
}

type driverKey struct {
	a    *analysis.Analyzer
	path string
}

type objFactKey struct {
	obj types.Object
	t   reflect.Type
}

// action is one memoized (analyzer, package) execution.
type action struct {
	result any
	diags  []analysis.Diagnostic
	err    error
}

func newDriver(ld *loader) *driver {
	return &driver{
		ld:       ld,
		done:     make(map[driverKey]*action),
		objFacts: make(map[objFactKey]analysis.Fact),
	}
}

// run executes a on fx and returns its diagnostics. Fixture-local
// imports are analyzed first (so their exported facts are in the store)
// and a's Requires run on fx itself before a does, exactly mirroring
// the unitchecker's dependency order.
func (d *driver) run(a *analysis.Analyzer, fx *fixture) ([]analysis.Diagnostic, error) {
	act, err := d.exec(a, fx)
	if err != nil {
		return nil, err
	}
	return act.diags, nil
}

func (d *driver) exec(a *analysis.Analyzer, fx *fixture) (*action, error) {
	k := driverKey{a, fx.path}
	if act, ok := d.done[k]; ok {
		return act, act.err
	}
	act := &action{}
	d.done[k] = act

	// Fixture-local imports first: their fact exports must precede our
	// fact imports. Standard-library imports have no fixture source and
	// carry no facts (matching `go vet`, where std units run VetxOnly
	// and our passes export nothing of interest for them).
	for _, imp := range fx.pkg.Imports() {
		if depfx, ok := d.ld.loaded[imp.Path()]; ok {
			if _, err := d.exec(a, depfx); err != nil {
				act.err = err
				return act, err
			}
		}
	}

	resultOf := make(map[*analysis.Analyzer]any)
	for _, req := range a.Requires {
		reqAct, err := d.exec(req, fx)
		if err != nil {
			act.err = err
			return act, err
		}
		resultOf[req] = reqAct.result
	}

	factTypes := make(map[reflect.Type]bool)
	for _, f := range a.FactTypes {
		factTypes[reflect.TypeOf(f)] = true
	}

	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       d.ld.fset,
		Files:      fx.files,
		Pkg:        fx.pkg,
		TypesInfo:  fx.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   resultOf,
		Report:     func(diag analysis.Diagnostic) { act.diags = append(act.diags, diag) },
		ReadFile:   os.ReadFile,
		ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
			if obj == nil {
				return false
			}
			stored, ok := d.objFacts[objFactKey{obj, reflect.TypeOf(fact)}]
			if !ok {
				return false
			}
			reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
			return true
		},
		ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
			if !factTypes[reflect.TypeOf(fact)] {
				panic(fmt.Sprintf("%s exports unregistered fact type %T", a.Name, fact))
			}
			clone, err := gobClone(fact)
			if err != nil {
				panic(fmt.Sprintf("%s: fact %T does not survive gob: %v", a.Name, fact, err))
			}
			d.objFacts[objFactKey{obj, reflect.TypeOf(fact)}] = clone
		},
	}
	act.result, act.err = a.Run(pass)
	if act.err != nil {
		return act, act.err
	}
	if a.ResultType != nil && act.result != nil && reflect.TypeOf(act.result) != a.ResultType {
		act.err = fmt.Errorf("%s returned %T, declared ResultType %s", a.Name, act.result, a.ResultType)
	}
	return act, act.err
}

// gobClone round-trips a fact through gob, mimicking the .vetx
// serialization boundary: analyzers must not rely on shared pointers,
// and a fact type that gob cannot encode fails here rather than in vet.
func gobClone(fact analysis.Fact) (analysis.Fact, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return nil, err
	}
	out := reflect.New(reflect.TypeOf(fact).Elem())
	if err := gob.NewDecoder(&buf).Decode(out.Interface()); err != nil {
		return nil, err
	}
	return out.Interface().(analysis.Fact), nil
}

// wantRx extracts the quoted regexps after "// want" in a comment.
var wantRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// checkDiagnostics compares diagnostics against // want annotations,
// keyed by (file, line).
func checkDiagnostics(t *testing.T, fset *token.FileSet, fx *fixture, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*expectation)
	for _, f := range fx.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if !strings.HasPrefix(c.Text, "//") || idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRx.FindAllString(c.Text[idx+len("want "):], -1) {
					pattern := q[1 : len(q)-1]
					if q[0] == '"' {
						var err error
						pattern, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want string %s: %v", pos, q, err)
						}
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &expectation{rx: rx})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		found := false
		for _, w := range wants[k] {
			if w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var unmatched []string
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				unmatched = append(unmatched, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, w.rx))
			}
		}
	}
	sort.Strings(unmatched)
	for _, m := range unmatched {
		t.Error(m)
	}
}
