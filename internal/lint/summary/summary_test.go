package summary_test

import (
	"go/ast"
	"go/types"
	"testing"

	"uba/internal/lint/linttest"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// dump is a test-only consumer of the summary pass: it reports each
// function's non-zero summary at its declaration, so the fixtures can
// pin the computed facts with want annotations — including facts that
// crossed one (helper) or two (proto) package boundaries, which is the
// property the unitchecker deployment depends on.
var dump = &analysis.Analyzer{
	Name:     "summarydump",
	Doc:      "report the computed summary fact of every declared function",
	Requires: []*analysis.Analyzer{summary.Analyzer},
	Run: func(pass *analysis.Pass) (any, error) {
		res := pass.ResultOf[summary.Analyzer].(*summary.Result)
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if s := res.Of(fn); s != (summary.FuncSummary{}) {
					pass.Reportf(fd.Name.Pos(), "summary: %s", s.String())
				}
			}
		}
		return nil, nil
	},
}

// Test pins the computed summaries: leaf holds the direct effects,
// helper and proto prove transitive propagation through exported facts,
// and cyc proves the fixpoint terminates on mutual recursion.
func Test(t *testing.T) {
	linttest.Run(t, "testdata", dump, "leaf", "helper", "proto", "cyc")
}

// TestSends pins the send-class facts: direct and
// loop-amplified env.Broadcast/env.Send sites, helper-laundered sends
// via ParamCalls, and the conservative dynamic edges.
func TestSends(t *testing.T) {
	linttest.Run(t, "testdata", dump, "sends")
}

// TestDirectives pins the pass's own diagnostics: unused and inert
// //lint:commutative / //lint:valuecopy directives.
func TestDirectives(t *testing.T) {
	linttest.Run(t, "testdata", summary.Analyzer, "directives")
}

// TestArgIndex pins the slot mapping conventions the consuming passes
// rely on: receiver shift and variadic collapse.
func TestArgIndex(t *testing.T) {
	pkg := types.NewPackage("p", "p")
	intT := types.Typ[types.Int]
	param := func(name string) *types.Var { return types.NewVar(0, pkg, name, intT) }

	plain := types.NewFunc(0, pkg, "f", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(param("a"), param("b")), nil, false))
	recv := types.NewVar(0, pkg, "r", intT)
	method := types.NewFunc(0, pkg, "m", types.NewSignatureType(recv, nil, nil,
		types.NewTuple(param("a")), nil, false))
	variadic := types.NewFunc(0, pkg, "v", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(param("a"), types.NewVar(0, pkg, "rest", types.NewSlice(intT))), nil, true))

	cases := []struct {
		fn   *types.Func
		arg  int
		want int
		ok   bool
	}{
		{plain, 0, 0, true},
		{plain, 1, 1, true},
		{method, 0, 1, true}, // receiver occupies slot 0
		{variadic, 1, 1, true},
		{variadic, 5, 1, true}, // variadic tail collapses
	}
	for _, c := range cases {
		got, ok := summary.ArgIndex(c.fn, c.arg)
		if got != c.want || ok != c.ok {
			t.Errorf("ArgIndex(%s, %d) = %d, %v; want %d, %v",
				c.fn.Name(), c.arg, got, ok, c.want, c.ok)
		}
	}
	if _, ok := summary.ArgIndex(types.NewFunc(0, pkg, "z",
		types.NewSignatureType(nil, nil, nil, nil, nil, false)), 0); ok {
		t.Error("ArgIndex on a zero-parameter function must report !ok")
	}
}
