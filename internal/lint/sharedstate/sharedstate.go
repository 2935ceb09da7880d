// Package sharedstate implements the ubalint pass enforcing the simnet
// Process isolation contract: implementations "must be self-contained
// (no shared mutable state with other processes) so that a worker cap
// above 1 can step them in parallel" (internal/simnet Process docs). A
// Step body that writes a package-level variable is a data race under
// Config.Workers > 1 that go test -race only catches when the schedule
// cooperates — this pass catches it statically, on every build.
//
// The pass flags, inside any Step(env *simnet.RoundEnv) body (including
// nested function literals):
//
//   - assignments whose destination is rooted at a package-level
//     variable — direct (counter = 1), through a field (global.f = 1),
//     or into a map or slice element (registry[id] = v, table[i] = v)
//   - ++ and -- on the same destinations
//   - delete on a package-level map
//   - writes through a local pointer (or slice/map copy) bound to a
//     package-level variable (p := &counter; *p = 1), via the alias
//     fixpoint in lintutil.GlobalAliases
//   - calls to functions whose uba/internal/lint/summary fact says they
//     write package-level state — directly or transitively through
//     further calls, across package boundaries
//
// Reads of package-level state are allowed (immutable configuration is
// fine). Remaining false negatives (see DESIGN.md): writes reached
// through interface dispatch or function values (no static summary),
// reflection, and unsafe. Deliberate cross-process instrumentation can
// be suppressed with //lint:allow sharedstate <reason>.
package sharedstate

import (
	"go/ast"
	"go/types"

	"uba/internal/lint/lintutil"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzer is the sharedstate pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc: "flag Process.Step bodies that write package-level mutable state, " +
		"a data race under the pooled concurrent runner",
	Run:      run,
	Requires: []*analysis.Analyzer{summary.Analyzer},
}

func run(pass *analysis.Pass) (any, error) {
	sup := lintutil.NewSuppressor(pass, "sharedstate")
	sum := pass.ResultOf[summary.Analyzer].(*summary.Result)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := lintutil.StepEnvParam(fn, pass.TypesInfo); !ok {
				continue
			}
			c := &checker{pass: pass, sup: sup, sum: sum,
				aliases: lintutil.GlobalAliases(pass.TypesInfo, fn.Body)}
			c.check(fn.Body)
		}
	}
	sup.Done()
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	sup  *lintutil.Suppressor
	sum  *summary.Result
	// aliases holds locals of this Step body that may reference
	// package-level storage; writing through them is a global write.
	aliases map[types.Object]bool
}

func (c *checker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := c.packageLevelRoot(lhs); v != nil {
					c.sup.Reportf(lhs.Pos(),
						"Step writes package-level variable %s: shared mutable state races under the pooled runner",
						v.Name())
				} else if root := c.aliasRoot(lhs); root != nil {
					// *p = v / p.f = v where p was bound to a global. A
					// plain reassignment of the alias itself (p = q) only
					// rebinds the local and is not a write.
					if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
						c.sup.Reportf(lhs.Pos(),
							"Step writes through %s, which aliases package-level state: shared mutable state races under the pooled runner",
							root.Name())
					}
				}
			}
		case *ast.IncDecStmt:
			if v := c.packageLevelRoot(n.X); v != nil {
				c.sup.Reportf(n.Pos(),
					"Step writes package-level variable %s: shared mutable state races under the pooled runner",
					v.Name())
			} else if root := c.aliasRoot(n.X); root != nil {
				if _, plain := ast.Unparen(n.X).(*ast.Ident); !plain {
					c.sup.Reportf(n.Pos(),
						"Step writes through %s, which aliases package-level state: shared mutable state races under the pooled runner",
						root.Name())
				}
			}
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// checkCall flags delete on package-level maps and calls to functions
// whose summary says they write package-level state (the helper-
// mediated global write the intraprocedural pass could not see).
func (c *checker) checkCall(n *ast.CallExpr) {
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "delete" && len(n.Args) == 2 {
				if v := c.packageLevelRoot(n.Args[0]); v != nil {
					c.sup.Reportf(n.Pos(),
						"Step deletes from package-level map %s: shared mutable state races under the pooled runner",
						v.Name())
				}
			}
			return
		}
	}
	callee := summary.Callee(c.pass.TypesInfo, n)
	if callee == nil {
		return
	}
	if c.sum.Of(callee).WritesGlobal {
		c.sup.Reportf(n.Pos(),
			"Step calls %s, which writes package-level state: shared mutable state races under the pooled runner",
			callee.Name())
	}
}

// aliasRoot returns the local variable at the root of an lvalue when
// that local may alias package-level storage, nil otherwise.
func (c *checker) aliasRoot(e ast.Expr) *types.Var {
	root := lintutil.RootIdent(e)
	if root == nil {
		return nil
	}
	obj := c.pass.TypesInfo.ObjectOf(root)
	if obj == nil || !c.aliases[obj] {
		return nil
	}
	v, _ := obj.(*types.Var)
	return v
}

// packageLevelRoot unwraps an lvalue (selector, index, dereference
// chains) to its root identifier and returns the corresponding variable
// when it is package-level, nil otherwise.
func (c *checker) packageLevelRoot(e ast.Expr) *types.Var {
	return lintutil.PackageLevelVar(c.pass.TypesInfo, e)
}
