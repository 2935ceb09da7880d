// Package retainenv implements the ubalint pass enforcing the simnet
// buffer-recycling contract: a Process.Step implementation must not
// retain env, the env.Inbox view, an iterator obtained from it, or a
// pointer to either past the Step call (the view aliases the shared
// broadcast block and unicast arena, which the engine recycles; see the
// package docs of internal/simnet and DESIGN.md "Static analysis").
//
// The pass analyzes every method of the form Step(env *simnet.RoundEnv)
// and flags the places where a round-scoped value can outlive the call:
//
//   - stores to a struct field, map or slice element, package-level
//     variable, or through a pointer
//   - capture by a goroutine launched from Step
//   - sends on a channel
//   - returns (including returns from nested function literals)
//
// Tracked values are the env parameter itself, the env.Inbox view
// (whose internal slices alias the recycled delivery storage), pointers
// to it (&env.Inbox), a dereferenced copy (*env, whose Inbox field
// shares the same backing arrays), env method values (env.Broadcast
// retains env), results of calls whose summary launders the view into a
// return value — notably env.Inbox.All(), whose iterator closes over
// the backing arrays — composite literals and appends embedding any of
// those, function literals capturing any of those, and local variables
// assigned from one (propagated to a fixpoint, flow-insensitively).
//
// Copying individual Inbox elements out BY VALUE is explicitly safe
// (simnet.Received is a value type whose referents are not recycled)
// and is not flagged: for m := range env.Inbox.All() copies each m. An
// accessor that hands out such copies carries a //lint:valuecopy
// directive clearing its Flows fact, which is what keeps the copy-outs
// untracked while a retained view is still caught.
//
// The payload-major accessors — env.Inbox.Said(), Broadcasters() and
// Direct() — carry no such directive: each returns a slice of recycled
// engine scratch, tracked through its Flows fact like any laundered
// view. An element copied out of a tracked slice, by index or by range,
// is a value unless its type itself holds a slice: a Received or a
// sender id may be kept, a simnet.Said may not (its By is a row of the
// recycled slab), and neither may g.By on its own; g.Payload may.
//
// The pass consumes uba/internal/lint/summary facts at call sites, so
// the interprocedural edges the intraprocedural walk used to miss are
// caught: passing a tracked value to a function (in this package or an
// imported one) whose summary says it retains that argument is flagged,
// and a call result is itself tracked when the callee's summary shows
// the tracked argument flowing into a return value (taint laundering
// through returns, including the multi-value assignment form).
//
// Remaining false negatives (see DESIGN.md): callees reached through
// interface dispatch or function values have no static summary and are
// assumed non-retaining, as are reflection and unsafe. The
// flow-insensitive alias set means a local reassigned to something safe
// after an escape still counts as tracked (a false positive,
// suppressible with //lint:allow retainenv <reason>).
package retainenv

import (
	"go/ast"
	"go/token"
	"go/types"

	"uba/internal/lint/lintutil"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzer is the retainenv pass.
var Analyzer = &analysis.Analyzer{
	Name: "retainenv",
	Doc: "flag Process.Step implementations that retain env or env.Inbox past the call, " +
		"violating the simnet buffer-recycling contract",
	Run:      run,
	Requires: []*analysis.Analyzer{summary.Analyzer},
}

func run(pass *analysis.Pass) (any, error) {
	sup := lintutil.NewSuppressor(pass, "retainenv")
	sum := pass.ResultOf[summary.Analyzer].(*summary.Result)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			env, ok := lintutil.StepEnvParam(fn, pass.TypesInfo)
			if !ok {
				continue
			}
			c := &checker{pass: pass, sup: sup, sum: sum,
				tracked: map[types.Object]bool{env: true},
				goCalls: map[*ast.CallExpr]bool{}}
			c.propagate(fn.Body)
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
	// tracked holds the objects (env plus local aliases) whose value is
	// round-scoped: retaining any of them past Step is a violation.
	tracked map[types.Object]bool
	// goCalls marks call expressions that are the operand of a go
	// statement: checkGo reports those, so the synchronous call-site
	// check skips them rather than double-reporting.
	goCalls map[*ast.CallExpr]bool
}

// propagate grows the tracked set with local variables assigned from a
// tracked expression, iterating to a fixpoint so chains like a := env;
// b := a are followed regardless of statement order.
func (c *checker) propagate(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					// Multi-value form: a call whose summary launders a
					// tracked argument into its results taints every
					// reference-carrying destination (v, err := wrap(env)).
					if len(n.Rhs) == 1 && c.multiValueTracked(n.Rhs[0]) {
						for _, lhs := range n.Lhs {
							if id, ok := lhs.(*ast.Ident); ok {
								obj := c.objOf(id)
								if obj != nil && !c.isPackageLevel(obj) && !c.tracked[obj] &&
									lintutil.RefCarrying(obj.Type()) {
									c.tracked[obj] = true
									changed = true
								}
							}
						}
					}
					return true
				}
				for i, rhs := range n.Rhs {
					if !c.trackedExpr(rhs) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := c.objOf(id); obj != nil && !c.isPackageLevel(obj) && !c.tracked[obj] {
							c.tracked[obj] = true
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// for _, g := range env.Inbox.Said(): g is a copy of an
				// element, round-scoped when the element still points into
				// the recycled arrays (see holdsSlice).
				if id, ok := n.Value.(*ast.Ident); ok && c.trackedExpr(n.X) {
					if obj := c.objOf(id); obj != nil && !c.tracked[obj] && holdsSlice(obj.Type()) {
						c.tracked[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, v := range n.Values {
					if !c.trackedExpr(v) {
						continue
					}
					if obj := c.objOf(n.Names[i]); obj != nil && !c.tracked[obj] {
						c.tracked[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

// check walks the Step body reporting every escape of a tracked value.
func (c *checker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.SendStmt:
			if c.trackedExpr(n.Value) {
				c.report(n.Value.Pos(), "round-scoped %s sent on a channel", c.describe(n.Value))
			}
		case *ast.GoStmt:
			c.goCalls[n.Call] = true
			c.checkGo(n)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if c.trackedExpr(r) {
					c.report(r.Pos(), "round-scoped %s returned, escaping the Step call", c.describe(r))
				}
			}
		case *ast.CallExpr:
			if !c.goCalls[n] {
				c.checkCall(n)
			}
		}
		return true
	})
}

// checkCall flags synchronous (and deferred) calls that hand a tracked
// value to a callee whose summary says it retains that argument slot —
// the h.save(env) edge the intraprocedural pass could not see. Callees
// without a summary (interface methods, function values) are assumed
// non-retaining.
func (c *checker) checkCall(call *ast.CallExpr) {
	callee := summary.Callee(c.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	s := c.sum.Of(callee)
	if s.Retains == 0 {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s.RetainsAt(summary.RecvIndex) && c.trackedExpr(sel.X) {
			c.report(sel.X.Pos(),
				"round-scoped %s is receiver of %s, which retains it past the call",
				c.describe(sel.X), callee.Name())
		}
	}
	for i, arg := range call.Args {
		idx, ok := summary.ArgIndex(callee, i)
		if ok && s.RetainsAt(idx) && c.trackedExpr(arg) {
			c.report(arg.Pos(),
				"round-scoped %s passed to %s, which retains it past the call",
				c.describe(arg), callee.Name())
		}
	}
}

// multiValueTracked reports whether the single RHS of a multi-value
// assignment yields tracked results: a call laundering a tracked
// argument, or a comma-ok assertion on a tracked interface value.
func (c *checker) multiValueTracked(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return c.callFlowsTracked(e)
	case *ast.TypeAssertExpr:
		return c.trackedExpr(e.X)
	}
	return false
}

// callFlowsTracked reports whether a call's results alias a tracked
// value, per the callee's Flows summary.
func (c *checker) callFlowsTracked(call *ast.CallExpr) bool {
	callee := summary.Callee(c.pass.TypesInfo, call)
	if callee == nil {
		return false
	}
	s := c.sum.Of(callee)
	if s.Flows == 0 {
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s.FlowsAt(summary.RecvIndex) && c.trackedExpr(sel.X) {
			return true
		}
	}
	for i, arg := range call.Args {
		idx, ok := summary.ArgIndex(callee, i)
		if ok && s.FlowsAt(idx) && c.trackedExpr(arg) {
			return true
		}
	}
	return false
}

// checkAssign flags assignments that store a tracked value anywhere that
// can outlive the Step call: a field, a map or slice element, a
// package-level variable, or through a pointer. Plain stores to local
// variables only alias (handled by propagate).
func (c *checker) checkAssign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		if !c.trackedExpr(rhs) {
			continue
		}
		switch lhs := ast.Unparen(n.Lhs[i]).(type) {
		case *ast.Ident:
			if obj := c.objOf(lhs); obj != nil && c.isPackageLevel(obj) {
				c.report(rhs.Pos(), "round-scoped %s stored in package-level variable %s", c.describe(rhs), lhs.Name)
			}
		case *ast.SelectorExpr:
			c.report(rhs.Pos(), "round-scoped %s stored in field %s", c.describe(rhs), lhs.Sel.Name)
		case *ast.IndexExpr:
			c.report(rhs.Pos(), "round-scoped %s stored in a map or slice element", c.describe(rhs))
		case *ast.StarExpr:
			c.report(rhs.Pos(), "round-scoped %s stored through a pointer", c.describe(rhs))
		}
	}
}

// checkGo flags goroutines that capture a tracked value: by argument, by
// method value receiver, or by closure reference. The goroutine outlives
// the Step call by construction (the engine only awaits Step itself).
func (c *checker) checkGo(n *ast.GoStmt) {
	call := n.Call
	for _, arg := range call.Args {
		if c.trackedExpr(arg) {
			c.report(arg.Pos(), "round-scoped %s passed to a goroutine", c.describe(arg))
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if obj := c.capturedObj(fun); obj != nil {
			c.report(n.Pos(), "goroutine closure captures round-scoped %s", obj.Name())
		}
	default:
		if c.trackedExpr(fun) {
			c.report(fun.Pos(), "goroutine invokes a method value retaining round-scoped state")
		}
	}
}

// trackedExpr reports whether e evaluates to a round-scoped value.
func (c *checker) trackedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.objOf(e)
		return obj != nil && c.tracked[obj]
	case *ast.SelectorExpr:
		if !c.trackedExpr(e.X) {
			return false
		}
		// env.Inbox is a view whose internal slices alias the recycled
		// backing arrays, and so is g.By of an element g of Inbox.Said;
		// a method value like env.Broadcast retains env itself. Other
		// selections (x := *env; x.Round, g.Payload) are plain values.
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.MethodVal {
			return true
		}
		return holdsSlice(c.pass.TypesInfo.TypeOf(e))
	case *ast.SliceExpr:
		return c.trackedExpr(e.X) // subslice shares the backing array
	case *ast.StarExpr:
		return c.trackedExpr(e.X) // *env copies the Inbox slice header
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		switch op := ast.Unparen(e.X).(type) {
		case *ast.IndexExpr:
			return c.trackedExpr(op.X) // &env.Inbox[i] points into the array
		default:
			return c.trackedExpr(e.X)
		}
	case *ast.IndexExpr:
		// Indexing a tracked container copies the element out by value:
		// safe for value-type elements like Received, not for one that
		// holds a slice of the same recycled storage, like Said.
		return c.trackedExpr(e.X) && holdsSlice(c.pass.TypesInfo.TypeOf(e))
	case *ast.CallExpr:
		// append(dst, env) (or any tracked argument) yields a slice
		// retaining the tracked value.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			args := e.Args[1:]
			for i, arg := range args {
				// append(x, tracked...) copies values out of the tracked
				// container, so the ellipsis argument is safe; append(x,
				// env) retains env itself.
				if e.Ellipsis.IsValid() && i == len(args)-1 {
					continue
				}
				if c.trackedExpr(arg) {
					return true
				}
			}
			return false
		}
		// A conversion preserves aliasing: EnvAlias(env) is still env.
		if tv, ok := c.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.trackedExpr(e.Args[0])
		}
		// A call whose summary launders a tracked argument (or receiver)
		// into a return value yields a tracked result: wrap(env),
		// env.Self(), identity helpers. Other call results are fresh.
		return c.callFlowsTracked(e)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.trackedExpr(el) {
				return true
			}
		}
		return false
	case *ast.FuncLit:
		return c.capturedObj(e) != nil
	}
	return false
}

// holdsSlice reports whether a value of type t holds a slice, directly
// or in a nested struct or array. A copy of such a value taken out of a
// round-scoped container is still round-scoped: its slice points into
// the same recycled arrays (Inbox's segments, the By row of a Said). A
// Received holds none — its payload is an immutable value behind an
// interface and its encoding a string — which is what makes copying
// messages out of an inbox safe.
func holdsSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Array:
		return holdsSlice(u.Elem())
	case *types.Struct:
		for i := range u.NumFields() {
			if holdsSlice(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// capturedObj returns a tracked object referenced inside fl, or nil.
func (c *checker) capturedObj(fl *ast.FuncLit) types.Object {
	var found types.Object
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.objOf(id); obj != nil && c.tracked[obj] {
				found = obj
				return false
			}
		}
		return true
	})
	return found
}

// describe names a tracked expression for diagnostics: the root
// identifier when there is one, else a generic label.
func (c *checker) describe(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				return id.Name + "." + x.Sel.Name
			}
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return "value"
		}
	}
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

func (c *checker) isPackageLevel(obj types.Object) bool {
	return obj.Parent() == c.pass.Pkg.Scope()
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.sup.Reportf(pos, format, args...)
}
