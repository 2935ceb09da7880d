// Package complexity implements the ubalint message-complexity
// certifier: a protocol's Process type declares its per-round send
// contract with a doc-comment directive,
//
//	//lint:complexity broadcasts=O(n) unicasts=0
//
// and the pass proves the declaration against the type's Step method
// by comparing it with the summary pass's derived send classes
// (Broadcasts/Unicasts facts): every env.Broadcast/env.Send call
// site, including sends laundered through helpers and through invoked
// function-typed parameters (ParamCalls), amplified by the loop
// nesting around each site. A loop counts as O(n) unless its trip
// count is provably constant — inbox iteration, ids.Set ranges, and
// n-sized slices are indistinguishable from any other collection by
// length, so the classifier is deliberately conservative (DESIGN.md
// §8.6 documents the over-approximation edges).
//
// The comparison is exact in both directions: a Step that exceeds its
// declared class is a regression the sparse delivery engine exists to
// prevent, and a declaration looser than the derived class overstates
// the protocol's cost and weakens the runtime oracle bound derived
// from it. Diagnostics anchor at the annotated type's name; suppress
// with //lint:allow complexity <reason> on or above that line.
package complexity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	ccplx "uba/internal/complexity"
	"uba/internal/lint/lintutil"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzer is the complexity certification pass.
var Analyzer = &analysis.Analyzer{
	Name:     "complexity",
	Doc:      "certify //lint:complexity send-class contracts on Process types against their Step implementations",
	Run:      run,
	Requires: []*analysis.Analyzer{summary.Analyzer},
}

func run(pass *analysis.Pass) (any, error) {
	res := pass.ResultOf[summary.Analyzer].(*summary.Result)
	sup := lintutil.NewSuppressor(pass, "complexity")

	// Step methods by receiver type, restricted to the Process.Step
	// shape (exactly one parameter, *simnet.RoundEnv).
	steps := make(map[string]*types.Func)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if _, ok := lintutil.StepEnvParam(fd, pass.TypesInfo); !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if name := recvTypeName(fn); name != "" {
				steps[name] = fn
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if doc == nil {
					continue
				}
				for _, c := range doc.List {
					args, ok := strings.CutPrefix(c.Text, "//lint:complexity")
					if !ok {
						continue
					}
					check(sup, res, steps, ts, args)
				}
			}
		}
	}
	sup.Done()
	return nil, nil
}

// check certifies one directive: parse the contract, locate the Step
// method, and compare declared against derived classes exactly.
func check(sup *lintutil.Suppressor, res *summary.Result, steps map[string]*types.Func, ts *ast.TypeSpec, args string) {
	name := ts.Name.Name
	ct, err := ccplx.ParseContract(args)
	if err != nil {
		sup.Reportf(ts.Name.Pos(), "malformed //lint:complexity directive on %s: %v", name, err)
		return
	}
	step, ok := steps[name]
	if !ok {
		sup.Reportf(ts.Name.Pos(), "//lint:complexity directive on %s, which has no Step(env *simnet.RoundEnv) method", name)
		return
	}
	s := res.Of(step)
	compare(sup, ts, name, "broadcasts", ct.Broadcasts, ccplx.Class(s.Broadcasts))
	compare(sup, ts, name, "unicasts", ct.Unicasts, ccplx.Class(s.Unicasts))
}

// compare reports both directions of a mismatch: exceeding the
// declaration is a complexity regression; a declaration looser than
// the derivation overstates the cost and weakens the runtime oracle's
// bound.
func compare(sup *lintutil.Suppressor, ts *ast.TypeSpec, name, kind string, declared, derived ccplx.Class) {
	switch {
	case derived > declared:
		sup.Reportf(ts.Name.Pos(), "%s.Step exceeds its declared complexity: %s derived %s, declared %s",
			name, kind, derived, declared)
	case derived < declared:
		sup.Reportf(ts.Name.Pos(), "declared complexity of %s is looser than its Step: %s declared %s, derived %s",
			name, kind, declared, derived)
	}
}

// recvTypeName returns the name of fn's receiver's named type,
// unwrapping one pointer.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
