// Package noalloc implements the ubalint allocation-freedom prover: a
// hot-path function declares
//
//	//lint:noalloc <reason>
//
// and the pass proves it performs no steady-state heap allocation —
// the static half of the zero-allocs-per-round contract the runtime
// AllocsPerRun gate measures (DESIGN.md §8.7).
//
// Local sites come from the summary pass's allocation scanner: make
// and new, appends that may grow, string conversions and
// concatenations, interface boxing, slice/map and addressed composite
// literals, capturing closures and method values, go statements, map
// writes, and fmt-family calls. The scanner already grants the
// steady-state exemptions (capacity-guarded growth, recycled
// self-appends into caller-owned buffers, non-capturing and deferred
// literals), so what it reports is amortized cost, not a first-call
// warm-up. Calls fold the callee's Allocates fact interprocedurally,
// which closes the alloc-laundering hole: a helper that allocates
// poisons every annotated caller, across packages, through the same
// .vetx facts the other passes ride.
//
// Escape hatches, both policed for staleness: a //lint:coldpath line
// comment exempts the sites on its own and the following line (error
// branches), and a //lint:coldpath doc directive clears a whole
// callee's fact (once-guarded setup paths).
//
// Trust boundaries (documented in DESIGN.md §8.7): calls through
// function values and interface methods are assumed allocation-free,
// and standard-library callees export no facts — only the fmt family
// is recognized by name, so an allocating strconv/strings call is a
// known false-negative edge.
package noalloc

import (
	"go/ast"
	"strings"

	"uba/internal/lint/lintutil"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzer is the allocation-freedom proving pass.
var Analyzer = &analysis.Analyzer{
	Name:     "noalloc",
	Doc:      "prove //lint:noalloc hot-path functions perform no steady-state heap allocation",
	Run:      run,
	Requires: []*analysis.Analyzer{summary.Analyzer},
}

func run(pass *analysis.Pass) (any, error) {
	res := pass.ResultOf[summary.Analyzer].(*summary.Result)
	sup := lintutil.NewSuppressor(pass, "noalloc")
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				args, ok := strings.CutPrefix(c.Text, "//lint:noalloc")
				if !ok {
					continue
				}
				check(pass, res, sup, fd, args)
			}
		}
	}
	sup.Done()
	return nil, nil
}

// check proves one annotated function. Directive shape errors anchor
// at the function name; allocation findings anchor at the site.
func check(pass *analysis.Pass, res *summary.Result, sup *lintutil.Suppressor, fd *ast.FuncDecl, args string) {
	name := fd.Name.Name
	if len(strings.Fields(args)) == 0 {
		sup.Reportf(fd.Name.Pos(), "malformed //lint:noalloc directive on %s: a reason is required", name)
		return
	}

	for _, site := range res.AllocSites(fd) {
		sup.Reportf(site.Pos, "%s is declared //lint:noalloc, but %s", name, site.Desc)
	}

	// Callee facts: an allocating callee poisons the caller unless a
	// coldpath line covers the call site (the same exemption the fact
	// fixpoint applies, so the diagnostic view matches the fact view).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := summary.Callee(pass.TypesInfo, call)
		if callee == nil {
			return true // function values, dynamic dispatch: trust boundary
		}
		s := res.Of(callee)
		if s.Allocates == 0 || res.ColdCovered(call.Pos()) {
			return true
		}
		sup.Reportf(call.Pos(), "%s is declared //lint:noalloc, but calls %s, which may allocate (%s)",
			name, callee.Name(), summary.AllocsString(s.Allocates))
		return true
	})
}
