// Package complexity implements the ubalint message-complexity
// certifier: it proves each entry of complexity.Registry — a family's
// per-round send contract for one Process type — against that type's
// Step method. An entry is certified while the pass analyzes the
// package whose name equals the entry's Family.
//
// The pass compares the contract with the summary pass's derived send
// classes (Broadcasts/Unicasts facts): every env.Broadcast/env.Send
// call site, including sends laundered through helpers and through
// invoked function-typed parameters (ParamCalls), amplified by the loop
// nesting around each site. A loop counts as O(n) unless its trip
// count is provably constant — inbox iteration, ids.Set ranges, and
// n-sized slices are indistinguishable from any other collection by
// length, so the classifier is deliberately conservative (DESIGN.md
// §8.6 documents the over-approximation edges).
//
// The comparison is exact in both directions: a Step that exceeds its
// registered class is a regression the sparse delivery engine exists to
// prevent, and a registered class looser than the derived class
// overstates the protocol's cost and weakens the runtime oracle bound
// read from the same entry. An entry naming a type its package does not
// declare is reported too. Diagnostics anchor at the type's name (the
// package clause for an undeclared type); suppress with
// //lint:allow complexity <reason> on or above that line.
package complexity

import (
	"go/token"
	"go/types"

	ccplx "uba/internal/complexity"
	"uba/internal/lint/lintutil"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzer certifies the repository's contract table.
var Analyzer = New(ccplx.Registry())

// New returns the complexity pass over table.
func New(table []ccplx.Entry) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "complexity",
		Doc:  "certify the complexity.Registry send-class contracts against their types' Step implementations",
		Run: func(pass *analysis.Pass) (any, error) {
			run(pass, table)
			return nil, nil
		},
		Requires: []*analysis.Analyzer{summary.Analyzer},
	}
}

func run(pass *analysis.Pass, table []ccplx.Entry) {
	res := pass.ResultOf[summary.Analyzer].(*summary.Result)
	sup := lintutil.NewSuppressor(pass, "complexity")
	for _, e := range table {
		if e.Family != pass.Pkg.Name() {
			continue
		}
		tn, ok := pass.Pkg.Scope().Lookup(e.Type).(*types.TypeName)
		if !ok {
			sup.Reportf(pass.Files[0].Name.Pos(), "complexity registry names %s.%s, which package %s does not declare",
				e.Family, e.Type, e.Family)
			continue
		}
		step := stepOf(tn)
		if step == nil {
			sup.Reportf(tn.Pos(), "%s has a registered complexity contract but no Step(env *simnet.RoundEnv) method", e.Type)
			continue
		}
		s := res.Of(step)
		compare(sup, tn.Pos(), e.Type, "broadcasts", e.Contract.Broadcasts, s.Broadcasts)
		compare(sup, tn.Pos(), e.Type, "unicasts", e.Contract.Unicasts, s.Unicasts)
	}
	sup.Done()
}

// stepOf returns tn's Process.Step method — exactly one parameter,
// *simnet.RoundEnv — or nil.
func stepOf(tn *types.TypeName) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, tn.Pkg(), "Step")
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	params := fn.Type().(*types.Signature).Params()
	if params.Len() != 1 || !lintutil.IsRoundEnvPtr(params.At(0).Type()) {
		return nil
	}
	return fn
}

// compare reports both directions of a mismatch: exceeding the
// registered class is a complexity regression; a registered class
// looser than the derivation overstates the cost and weakens the
// runtime oracle's bound.
func compare(sup *lintutil.Suppressor, pos token.Pos, name, kind string, registered, derived ccplx.Class) {
	switch {
	case derived > registered:
		sup.Reportf(pos, "%s.Step exceeds its registered complexity: %s derived %s, registered %s",
			name, kind, derived, registered)
	case derived < registered:
		sup.Reportf(pos, "registered complexity of %s is looser than its Step: %s registered %s, derived %s",
			name, kind, registered, derived)
	}
}
