// Package summary implements the ubalint fact pass: a per-function,
// interprocedural effect analysis whose results the diagnostic passes
// consume at call sites — retainenv reads Retains and Flows,
// determinism reads OrderSensitive, and complexity reads the send
// classes. It turns the false-negative edges the intraprocedural passes
// documented — retention through a synchronous call, taint laundering
// through returns, order-sensitive effects hidden behind a call — into
// facts that cross package boundaries.
//
// For every function with a body the pass computes a FuncSummary:
//
//   - Retains: a bitmask over the parameters (receiver first) whose
//     value may be stored somewhere that outlives the call — a field of
//     another parameter, a package-level variable, a map/slice element
//     reachable from either, a channel, a goroutine, or an argument
//     position of a callee that itself retains it.
//   - Flows: a bitmask over the parameters that may alias a return
//     value, directly or laundered through local assignments and calls
//     to other flowing functions.
//   - OrderSensitive: calling the function has an observable effect
//     whose result depends on call order — a channel send, an append to
//     state reachable from its parameters or a global, a string
//     concatenation onto such state, a plain (non-fold) overwrite of
//     such state, or a call to another order-sensitive function.
//
// Summaries are resolved to a fixpoint over the package's internal call
// graph (mutual recursion converges because the lattice is finite and
// effects only accumulate) and exported as analysis.Facts, so the
// unitchecker propagates them across package boundaries through the
// same .vetx files that carry export data. Callees with no summary —
// interface methods with no static callee, function values, bodyless
// declarations — are assumed effect-free; dynamic dispatch is a
// documented remaining edge (DESIGN.md "Static analysis").
//
// Standard-library packages (sources under GOROOT) are not summarized:
// their internal state is synchronization-protected machinery outside
// the protocol state model, so std callees fall under the
// effect-free-by-default rule. Two doc-comment directives adjust a
// declaration's facts: //lint:commutative <reason> clears
// OrderSensitive — the sorted-insert escape hatch for operations whose
// final state the author asserts is independent of call order — and
// //lint:valuecopy <reason> clears Flows, asserting that the returned
// value is a plain copy sharing no memory with the receiver or
// arguments (the element-accessor shape: structurally the result reads
// through the receiver's backing arrays, but what comes back is a
// by-value Received the caller may keep). Both are policed for
// staleness.
package summary

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"

	"uba/internal/complexity"
	"uba/internal/lint/lintutil"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// MaxTracked caps the number of parameters (receiver included) a
// summary tracks; functions with more spill the excess into the last
// bit, which is conservative but keeps the fact a fixed-size word.
const MaxTracked = 32

// FuncSummary is the exported fact: the externally observable effects
// of one function. The zero value means "no observable effects" and is
// never exported (absence of a fact is the common case).
type FuncSummary struct {
	Retains        uint32
	Flows          uint32
	OrderSensitive bool

	// Broadcasts and Unicasts are send classes: how many env.Broadcast /
	// env.Send calls one invocation performs as a function of the
	// participant count n, including sends delegated to callees and to
	// function-typed arguments the callee invokes. Quadratic is the top:
	// anything at or above O(n²) collapses onto it.
	Broadcasts complexity.Class
	Unicasts   complexity.Class
	// ParamCalls packs, two bits per tracked slot, the send class of
	// how often the function invokes a function-typed parameter bound
	// to that slot — the helper-mediated-send channel: a caller passing
	// env.Broadcast into a slot of class Linear performs O(n)
	// broadcasts.
	ParamCalls uint64
}

// AFact marks FuncSummary as an analysis fact.
func (*FuncSummary) AFact() {}

func (s *FuncSummary) String() string {
	var parts []string
	if s.Retains != 0 {
		parts = append(parts, fmt.Sprintf("retains(%b)", s.Retains))
	}
	if s.Flows != 0 {
		parts = append(parts, fmt.Sprintf("flows(%b)", s.Flows))
	}
	if s.OrderSensitive {
		parts = append(parts, "ordersensitive")
	}
	if s.Broadcasts != complexity.None {
		parts = append(parts, "bcast("+s.Broadcasts.String()+")")
	}
	if s.Unicasts != complexity.None {
		parts = append(parts, "uni("+s.Unicasts.String()+")")
	}
	if s.ParamCalls != 0 {
		var cs []string
		for i := 0; i < MaxTracked; i++ {
			if c := s.ParamCallsAt(i); c != complexity.None {
				cs = append(cs, fmt.Sprintf("%d:%s", i, c))
			}
		}
		parts = append(parts, "calls("+strings.Join(cs, ",")+")")
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, "+")
}

func (s FuncSummary) isZero() bool {
	return s.Retains == 0 && s.Flows == 0 && !s.OrderSensitive &&
		s.Broadcasts == complexity.None && s.Unicasts == complexity.None && s.ParamCalls == 0
}

// RetainsAt and FlowsAt test one tracked slot (see ArgIndex/RecvIndex).
func (s FuncSummary) RetainsAt(i int) bool { return s.Retains&(1<<uint(i)) != 0 }

// FlowsAt reports whether tracked slot i may alias a return value.
func (s FuncSummary) FlowsAt(i int) bool { return s.Flows&(1<<uint(i)) != 0 }

// ParamCallsAt returns the send class of how often the function
// invokes a function value bound to tracked slot i.
func (s FuncSummary) ParamCallsAt(i int) complexity.Class {
	if i < 0 || i >= MaxTracked {
		return complexity.None
	}
	return complexity.Class(s.ParamCalls>>(2*uint(i))) & 3
}

// joinParamCall raises slot i's invocation class to at least c.
//
//lint:commutative lattice join: the packed per-slot max is identical under any call order
func (s *FuncSummary) joinParamCall(i int, c complexity.Class) {
	if i < 0 || i >= MaxTracked || c <= s.ParamCallsAt(i) {
		return
	}
	shift := 2 * uint(i)
	s.ParamCalls = s.ParamCalls&^(3<<shift) | uint64(c)<<shift
}

// RecvIndex is the tracked slot of a method's receiver.
const RecvIndex = 0

// ArgIndex maps the i'th call argument (0-based) of a call to fn onto
// its tracked slot: the receiver of a method occupies slot 0 and shifts
// the parameters by one; arguments beyond a variadic final parameter
// collapse onto its slot. ok is false when fn takes no parameters or
// the slot falls outside the tracked range.
func ArgIndex(fn *types.Func, i int) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	off := 0
	if sig.Recv() != nil {
		off = 1
	}
	n := sig.Params().Len()
	if n == 0 {
		return 0, false
	}
	if i >= n {
		i = n - 1 // variadic tail
	}
	idx := off + i
	if idx >= MaxTracked {
		return 0, false
	}
	return idx, true
}

// Analyzer is the summary pass. It exists primarily for its facts and
// its Result; its only diagnostics police the fact-adjusting
// directives themselves — a //lint:commutative or //lint:valuecopy
// whose function's raw summary never had the effect the directive
// clears is reported as unused (parity with Suppressor.Done for
// //lint:allow), and a directive missing its reason is reported as
// inert.
var Analyzer = &analysis.Analyzer{
	Name:       "summary",
	Doc:        "compute per-function retention, flow, order-sensitivity, and send-class facts for the ubalint passes; report unused fact directives",
	Run:        run,
	FactTypes:  []analysis.Fact{(*FuncSummary)(nil)},
	ResultType: reflect.TypeOf((*Result)(nil)),
}

// Result looks up function summaries: locally computed ones for the
// package under analysis, imported facts for everything else. The
// consuming passes hold it via pass.ResultOf[summary.Analyzer].
type Result struct {
	pass  *analysis.Pass
	local map[*types.Func]FuncSummary
}

// Of returns fn's summary, or the zero summary when fn is nil or has
// no recorded effects (bodyless functions, interface methods, functions
// of packages analyzed without the pass).
func (r *Result) Of(fn *types.Func) FuncSummary {
	if fn == nil {
		return FuncSummary{}
	}
	if s, ok := r.local[fn]; ok {
		return s
	}
	var s FuncSummary
	r.pass.ImportObjectFact(fn, &s) // leaves the zero value when absent
	return s
}

// Callee resolves the statically-known called function of call: a
// package-level function, a method with a concrete receiver, or an
// interface method identifier. Returns nil for builtins, conversions,
// and calls through function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	return typeutil.StaticCallee(info, call)
}

func run(pass *analysis.Pass) (any, error) {
	res := &Result{pass: pass, local: make(map[*types.Func]FuncSummary)}

	// Standard-library packages get no summaries: their internal state
	// (fmt's printer pool, testing's output buffer, sync's machinery) is
	// synchronization-protected plumbing outside the protocol state
	// model, and structural summaries of it would flag every
	// fmt.Sprintf call as a shared-state write. With no facts exported,
	// std callees fall under the effect-free-by-default rule.
	if inGOROOT(pass) {
		return res, nil
	}

	// Collect every function declaration with a body, noting which carry
	// a //lint:commutative or //lint:valuecopy directive.
	decls := make(map[*types.Func]*ast.FuncDecl)
	commutative := make(map[*types.Func]bool) // present = directive; value = has a reason
	valuecopy := make(map[*types.Func]bool)
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
			decls[fn] = fd
			res.local[fn] = FuncSummary{}
			if reasoned, ok := directive(fd, "//lint:commutative"); ok {
				commutative[fn] = reasoned
			}
			if reasoned, ok := directive(fd, "//lint:valuecopy"); ok {
				valuecopy[fn] = reasoned
			}
		}
	}

	// Fixpoint over the package-internal call graph: recompute every
	// summary against the current ones until nothing grows. Effects only
	// accumulate (the lattice is a finite powerset plus a boolean),
	// so mutual recursion converges. Directives are applied inside the
	// loop so package-internal callers fold in the adjusted facts.
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			s := analyzeFunc(pass, res, fn, fd)
			if commutative[fn] {
				s.OrderSensitive = false
			}
			if valuecopy[fn] {
				s.Flows = 0
			}
			if s != res.local[fn] {
				res.local[fn] = s
				changed = true
			}
		}
	}

	// Police the directives: one that adjusts nothing is stale and
	// hides a future real effect behind an assertion nobody re-checks.
	// The raw summary is recomputed against the directive-adjusted
	// environment, so "unused" means "given everything else, this
	// directive changes nothing".
	sup := lintutil.NewSuppressor(pass, "summary")
	for fn, fd := range decls {
		// Diagnostics anchor at the function name (the directive lives in
		// its doc comment), so a //lint:allow on the declaration line or
		// the doc comment's last line suppresses them.
		report := func(reasoned bool, name, effect string) {
			if !reasoned {
				sup.Reportf(fd.Name.Pos(), "%s directive on %s is inert: no reason given", name, fn.Name())
				return
			}
			raw := analyzeFunc(pass, res, fn, fd)
			if (name == "//lint:commutative" && !raw.OrderSensitive) ||
				(name == "//lint:valuecopy" && raw.Flows == 0) {
				sup.Reportf(fd.Name.Pos(), "unused %s directive: %s is not %s", name, fn.Name(), effect)
			}
		}
		if reasoned, ok := commutative[fn]; ok {
			report(reasoned, "//lint:commutative", "order-sensitive")
		}
		if reasoned, ok := valuecopy[fn]; ok {
			report(reasoned, "//lint:valuecopy", "flowing any parameter to a return value")
		}
	}
	sup.Done()

	// Export non-trivial summaries so downstream packages see them.
	for fn, s := range res.local {
		if !s.isZero() {
			s := s
			pass.ExportObjectFact(fn, &s)
		}
	}
	return res, nil
}

// inGOROOT reports whether the package under analysis lives in the Go
// standard library, detected by its source location. The GOROOT seen
// here is the toolchain's build-time root (or the GOROOT environment
// variable), which matches because go vet drives this binary with the
// same toolchain that built it; a mismatch degrades to analyzing std,
// which is noisy but never wrong about our own packages.
func inGOROOT(pass *analysis.Pass) bool {
	root := build.Default.GOROOT
	if root == "" || len(pass.Files) == 0 {
		return false
	}
	file := pass.Fset.Position(pass.Files[0].Pos()).Filename
	return strings.HasPrefix(file, filepath.Clean(root)+string(filepath.Separator))
}

// directive reports whether fd's doc comment carries the given
// fact-adjusting directive with a non-empty reason:
//
//	//lint:commutative <reason> — the function's order-sensitive-looking
//	effect is in fact independent of call order (the sorted-insert
//	shape: ids.Set.Add appends, but the resulting set is identical
//	under any insertion order). Clears only OrderSensitive.
//
//	//lint:valuecopy <reason> — the function's return value is a plain
//	by-value copy sharing no memory with the receiver or arguments,
//	even though the body structurally reads through them (the
//	element-accessor shape: indexing a recycled backing array but
//	returning a value-type element). Clears only Flows.
//
// Retention facts are never cleared. Like the fold carve-outs,
// directives are a documented trust boundary: the analysis takes the
// author's word. A directive with no reason is inert (and reported as
// such). found reports the directive's presence, reasoned whether it
// carries the reason that makes it effective.
func directive(fd *ast.FuncDecl, name string) (reasoned, found bool) {
	if fd.Doc == nil {
		return false, false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, name)
		if ok {
			return len(strings.Fields(rest)) > 0, true
		}
	}
	return false, false
}

// funcState is the per-function analysis state.
type funcState struct {
	pass *analysis.Pass
	res  *Result
	fd   *ast.FuncDecl
	// taint maps an object (parameter or local) to the set of parameter
	// slots whose memory it may alias. Parameters seed their own slot.
	taint map[types.Object]uint32
	// paramSlot maps each tracked parameter object to its slot.
	paramSlot map[types.Object]int
	// globalAliases holds locals that may reference package-level
	// storage (see lintutil.GlobalAliases).
	globalAliases map[types.Object]bool
	// namedResults are the declared result variables, for bare returns.
	namedResults []types.Object
	out          FuncSummary
}

func analyzeFunc(pass *analysis.Pass, res *Result, fn *types.Func, fd *ast.FuncDecl) FuncSummary {
	st := newFuncState(pass, res, fd)

	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					st.namedResults = append(st.namedResults, obj)
				}
			}
		}
	}

	st.propagate()
	st.findSinks()
	st.sendScan()
	return st.out
}

// newFuncState builds the per-function state with parameter slots
// seeded: receiver first, then parameters, skipping slots (but not
// positions) for values that cannot carry references — retaining a
// copied int is not retention of caller memory.
func newFuncState(pass *analysis.Pass, res *Result, fd *ast.FuncDecl) *funcState {
	st := &funcState{
		pass:          pass,
		res:           res,
		fd:            fd,
		taint:         make(map[types.Object]uint32),
		paramSlot:     make(map[types.Object]int),
		globalAliases: lintutil.GlobalAliases(pass.TypesInfo, fd.Body),
	}

	slot := 0
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			names := field.Names
			if len(names) == 0 {
				slot++ // unnamed parameter still occupies its slot
				continue
			}
			for _, name := range names {
				obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if ok && slot < MaxTracked && lintutil.RefCarrying(obj.Type()) {
					st.paramSlot[obj] = slot
					st.taint[obj] = 1 << uint(slot)
				}
				slot++
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
	return st
}

// propagate grows the taint map to a fixpoint: locals assigned from a
// tainted expression alias its parameters, container locals absorb the
// taint of values stored into them, and call results inherit the taint
// of arguments the callee's Flows fact launders through.
func (st *funcState) propagate() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(st.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if st.assignTaint(n.Lhs[i], st.taintOf(rhs)) {
							changed = true
						}
					}
				} else if len(n.Rhs) == 1 {
					// Multi-value form: a call, map index, or type
					// assertion. Taint every reference-carrying result
					// (we do not track which result position flows).
					m := st.multiTaint(n.Rhs[0])
					for _, lhs := range n.Lhs {
						if st.assignTaint(lhs, m) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, v := range n.Values {
						if st.assignTaint(n.Names[i], st.taintOf(v)) {
							changed = true
						}
					}
				} else if len(n.Values) == 1 {
					m := st.multiTaint(n.Values[0])
					for _, name := range n.Names {
						if st.assignTaint(name, m) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// Range iteration variables alias the ranged
				// expression's memory: a reference-carrying element of
				// a tainted container (or a tainted iterator's yield)
				// carries its taint. Non-reference variables — the int
				// index of a slice — sever it, as in taintOf.
				m := st.taintOf(n.X)
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if m == 0 || v == nil {
						continue
					}
					if t := st.pass.TypesInfo.TypeOf(v); t == nil || !lintutil.RefCarrying(t) {
						continue
					}
					if st.assignTaint(v, m) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// assignTaint merges mask into the object named by lhs. Plain locals
// alias; stores into a local container (buf.f = x, buf[i] = x) taint
// the container, so a later escape of the container carries the mask.
func (st *funcState) assignTaint(lhs ast.Expr, mask uint32) bool {
	if mask == 0 {
		return false
	}
	root := lintutil.RootIdent(lhs)
	if root == nil {
		return false
	}
	obj := st.pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return false
	}
	if v, ok := obj.(*types.Var); !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return false // globals are sinks, not aliases; non-vars ignored
	}
	if _, isParam := st.paramSlot[obj]; isParam {
		// Storing into a parameter-rooted container is a sink (the value
		// escapes through the parameter), handled by findSinks. Plain
		// reassignment of the parameter name itself still aliases.
		if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
			return false
		}
	}
	if st.taint[obj]&mask == mask {
		return false
	}
	st.taint[obj] |= mask
	return true
}

// taintOf returns the parameter slots whose memory e may alias.
// The rules mirror retainenv's single-value tracking, generalized to
// masks and arbitrary parameters: subslices and dereferences preserve
// aliasing, by-value element and field copies of non-reference types
// sever it, composite literals and closures union their parts, and
// call results launder the taint of arguments the callee Flows.
func (st *funcState) taintOf(e ast.Expr) uint32 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := st.pass.TypesInfo.ObjectOf(e); obj != nil {
			return st.taint[obj]
		}
	case *ast.SelectorExpr:
		base := st.taintOf(e.X)
		if base == 0 {
			return 0
		}
		// A method value bound to a tainted receiver retains it; a field
		// of reference-carrying type shares memory with the base.
		if sel, ok := st.pass.TypesInfo.Selections[e]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				return base
			case types.FieldVal:
				if lintutil.RefCarrying(sel.Type()) {
					return base
				}
			}
		}
		return 0
	case *ast.SliceExpr:
		return st.taintOf(e.X) // subslice shares the backing array
	case *ast.StarExpr:
		return st.taintOf(e.X) // *p copies headers that still share referents
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return 0
		}
		if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
			return st.taintOf(idx.X) // &s[i] points into the backing array
		}
		return st.taintOf(e.X)
	case *ast.IndexExpr:
		// s[i] copies the element out; only reference-carrying elements
		// keep aliasing the container's memory.
		if t := st.pass.TypesInfo.TypeOf(e); t != nil && lintutil.RefCarrying(t) {
			return st.taintOf(e.X)
		}
		return 0
	case *ast.TypeAssertExpr:
		return st.taintOf(e.X)
	case *ast.CallExpr:
		return st.callTaint(e)
	case *ast.CompositeLit:
		var m uint32
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m |= st.taintOf(el)
		}
		return m
	case *ast.FuncLit:
		return st.capturedTaint(e)
	}
	return 0
}

// multiTaint is taintOf for the single right-hand side of a multi-value
// assignment (call, type assertion, or map index with ok).
func (st *funcState) multiTaint(e ast.Expr) uint32 {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return st.callTaint(e)
	case *ast.TypeAssertExpr:
		return st.taintOf(e.X)
	case *ast.IndexExpr:
		if t := st.pass.TypesInfo.TypeOf(ast.Expr(e)); t != nil && lintutil.RefCarrying(t) {
			return st.taintOf(e.X)
		}
	}
	return 0
}

// callTaint returns the taint of a call expression's results: append
// splices its operands' aliasing together, conversions preserve it, and
// ordinary calls launder the taint of arguments (and receiver) whose
// slots the callee's summary marks as flowing into a return value.
func (st *funcState) callTaint(call *ast.CallExpr) uint32 {
	// Conversions preserve aliasing ([]byte(s) copies, but T(ptr),
	// Named(slice) alias; be conservative and keep the taint).
	if tv, ok := st.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return st.taintOf(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := st.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() != "append" || len(call.Args) == 0 {
				return 0
			}
			// append's result aliases the destination; spliced-in slices
			// (without ...) alias too. An ellipsis argument copies the
			// elements out, which severs element-value aliasing for
			// non-reference element types only if the element type says
			// so — but the destination's taint dominates anyway, so the
			// retainenv convention (ellipsis copy is safe) is kept.
			m := st.taintOf(call.Args[0])
			for i, arg := range call.Args[1:] {
				if call.Ellipsis.IsValid() && i == len(call.Args[1:])-1 {
					continue
				}
				m |= st.taintOf(arg)
			}
			return m
		}
	}
	callee := Callee(st.pass.TypesInfo, call)
	if callee == nil {
		return 0 // function values, dynamic dispatch: documented edge
	}
	s := st.res.Of(callee)
	if s.Flows == 0 {
		return 0
	}
	var m uint32
	if recv := receiverExpr(call); recv != nil && s.FlowsAt(RecvIndex) {
		m |= st.taintOf(recv)
	}
	for i, arg := range call.Args {
		idx, ok := ArgIndex(callee, i)
		if ok && s.FlowsAt(idx) {
			m |= st.taintOf(arg)
		}
	}
	return m
}

// capturedTaint unions the taint of every free variable referenced
// inside fl.
func (st *funcState) capturedTaint(fl *ast.FuncLit) uint32 {
	var m uint32
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := st.pass.TypesInfo.ObjectOf(id); obj != nil {
				m |= st.taint[obj]
			}
		}
		return true
	})
	return m
}

// receiverExpr returns the receiver expression of a method call, or nil
// for package-qualified and plain function calls.
func receiverExpr(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// findSinks walks the body once, accumulating the summary's effects.
func (st *funcState) findSinks() {
	// funcDepth tracks nesting inside function literals: returns there
	// go to the literal's caller (within this call), not to ours.
	funcDepth := 0
	var stack []ast.Node
	ast.Inspect(st.fd.Body, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				funcDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			funcDepth++
		case *ast.AssignStmt:
			st.sinkAssign(n, stack)
		case *ast.SendStmt:
			// A send on a channel reachable by our callers (through a
			// parameter or a global) is an order-observable effect; a
			// send on a frame-local channel is not.
			if st.taintOf(n.Chan) != 0 || st.isGlobalWrite(n.Chan) {
				st.out.OrderSensitive = true
			}
			st.out.Retains |= st.taintOf(n.Value)
		case *ast.GoStmt:
			st.out.Retains |= st.goTaint(n)
		case *ast.ReturnStmt:
			if funcDepth == 0 {
				if len(n.Results) == 0 {
					for _, obj := range st.namedResults {
						st.out.Flows |= st.taint[obj]
					}
				}
				for _, r := range n.Results {
					st.out.Flows |= st.taintOf(r)
				}
			}
		case *ast.CallExpr:
			st.sinkCall(n)
		}
		stack = append(stack, n)
		return true
	})
}

// goTaint returns everything a go statement captures: arguments, a
// tainted method-value callee, and closure-captured locals.
func (st *funcState) goTaint(n *ast.GoStmt) uint32 {
	var m uint32
	for _, arg := range n.Call.Args {
		m |= st.taintOf(arg)
	}
	switch fun := ast.Unparen(n.Call.Fun).(type) {
	case *ast.FuncLit:
		m |= st.capturedTaint(fun)
	default:
		m |= st.taintOf(n.Call.Fun)
	}
	return m
}

// isGlobalWrite reports whether the lvalue writes package-level state:
// directly, or through a local alias bound to a global.
func (st *funcState) isGlobalWrite(lhs ast.Expr) bool {
	if lintutil.PackageLevelVar(st.pass.TypesInfo, lhs) != nil {
		return true
	}
	if root := lintutil.RootIdent(lhs); root != nil {
		if obj := st.pass.TypesInfo.ObjectOf(root); obj != nil && st.globalAliases[obj] {
			return true
		}
	}
	return false
}

// writesShared reports whether lhs denotes state observable after the
// call: rooted at a parameter, a global, or a global alias. Locals that
// never escape are invisible to callers.
func (st *funcState) writesShared(lhs ast.Expr) bool {
	if st.isGlobalWrite(lhs) {
		return true
	}
	root := lintutil.RootIdent(lhs)
	if root == nil {
		return true // call-result base (f().x = v): conservative
	}
	obj := st.pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return false
	}
	if _, isParam := st.paramSlot[obj]; isParam {
		// Writing *through* a parameter touches caller-visible memory
		// only when the access path crosses a reference (p.f, *p, s[i]);
		// reassigning the parameter variable itself is local.
		_, plain := ast.Unparen(lhs).(*ast.Ident)
		return !plain
	}
	return false
}

// sinkAssign classifies one assignment: escapes of tainted values and
// order-sensitive shared-state updates.
func (st *funcState) sinkAssign(n *ast.AssignStmt, stack []ast.Node) {
	if len(n.Lhs) != len(n.Rhs) && len(n.Rhs) != 1 {
		return
	}
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if len(n.Lhs) == len(n.Rhs) {
			rhs = n.Rhs[i]
		} else {
			rhs = n.Rhs[0]
		}

		// Escape of a tainted value.
		var m uint32
		if len(n.Lhs) == len(n.Rhs) {
			m = st.taintOf(rhs)
		} else {
			m = st.multiTaint(rhs)
		}
		if m != 0 {
			st.sinkStore(lhs, m)
		}

		// Order-sensitive shared-state update.
		if st.orderSensitiveWrite(n, lhs, rhs, stack) {
			st.out.OrderSensitive = true
		}
	}
}

// sinkStore records the escape caused by storing a value with taint
// mask m into lhs. Stores into a parameter's object drop that
// parameter's own bit: writing a value derived from p back into p (the
// Broadcast-appends-to-its-receiver shape) retains nothing new.
func (st *funcState) sinkStore(lhs ast.Expr, m uint32) {
	lhs = ast.Unparen(lhs)
	if _, plain := lhs.(*ast.Ident); plain {
		// Plain identifier: a global is an escape, a local only aliases
		// (handled by propagate).
		if lintutil.PackageLevelVar(st.pass.TypesInfo, lhs) != nil {
			st.out.Retains |= m
		}
		return
	}
	root := lintutil.RootIdent(lhs)
	if root == nil {
		st.out.Retains |= m // f().field = x: conservative
		return
	}
	obj := st.pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return
	}
	if slot, ok := st.paramSlot[obj]; ok {
		st.out.Retains |= m &^ (1 << uint(slot))
		return
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		st.out.Retains |= m
		return
	}
	if st.globalAliases[obj] {
		st.out.Retains |= m
		return
	}
	// Store into a local container: propagate() already tainted it, and
	// its own escape (if any) carries the mask.
}

// orderSensitiveWrite reports whether this assignment is an observable
// effect whose outcome depends on the order of calls: an append to
// shared state, a string concatenation onto it, or a plain last-writer
// overwrite of it that is not one of the recognized order-independent
// folds (constant store, self-compare min/max, tie-broken guard).
func (st *funcState) orderSensitiveWrite(n *ast.AssignStmt, lhs, rhs ast.Expr, stack []ast.Node) bool {
	if !st.writesShared(lhs) {
		return false
	}
	// Element writes (m[k] = v, s[i] = v) are keyed: the caller's
	// argument selects the slot, so distinct calls do not interfere.
	// (A helper writing a *fixed* key is a documented remaining edge.)
	if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex {
		return false
	}
	switch n.Tok {
	case token.ADD_ASSIGN:
		t := st.pass.TypesInfo.TypeOf(lhs)
		if t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return true // s += v concatenates in call order
			}
		}
		return false // numeric += is commutative
	case token.ASSIGN:
		// Idempotent constant store: x = true from any call order
		// converges.
		if tv, ok := st.pass.TypesInfo.Types[rhs]; ok && tv.Value != nil {
			return false
		}
		// append to shared state collects in call order.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := st.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					return true
				}
			}
		}
		// Guarded folds: a condition comparing the destination against
		// the stored value (min/max) or containing an explicit tie-break
		// (==, Less, Compare) keeps the result order-independent.
		if foldGuard(lhs, rhs, stack) {
			return false
		}
		return true
	}
	return false // other op-assigns (-=, |=, ...) are commutative enough
}

// foldGuard reports whether an enclosing if/switch condition makes the
// write order-independent: it relates the destination to the stored
// value with a relational operator, or carries an explicit equality /
// Less / Compare tie-break. This mirrors the determinism pass's
// intraprocedural carve-outs and shares their documented trust boundary
// (the comparison is assumed to be a total order).
func foldGuard(lhs, rhs ast.Expr, stack []ast.Node) bool {
	lhsStr := types.ExprString(ast.Unparen(lhs))
	rhsStr := types.ExprString(ast.Unparen(rhs))
	for _, n := range stack {
		var conds []ast.Expr
		switch n := n.(type) {
		case *ast.IfStmt:
			conds = append(conds, n.Cond)
		case *ast.CaseClause:
			conds = append(conds, n.List...)
		case *ast.SwitchStmt, *ast.BlockStmt, *ast.AssignStmt, *ast.ExprStmt:
			continue
		default:
			continue
		}
		for _, cond := range conds {
			found := false
			ast.Inspect(cond, func(cn ast.Node) bool {
				switch cn := cn.(type) {
				case *ast.BinaryExpr:
					switch cn.Op {
					case token.LSS, token.GTR, token.LEQ, token.GEQ:
						x := types.ExprString(ast.Unparen(cn.X))
						y := types.ExprString(ast.Unparen(cn.Y))
						if (x == rhsStr && y == lhsStr) || (x == lhsStr && y == rhsStr) {
							found = true
						}
					case token.EQL:
						found = true // explicit tie-break
					}
				case *ast.CallExpr:
					if sel, ok := ast.Unparen(cn.Fun).(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "Less", "Compare":
							found = true
						}
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// sinkCall applies the callee's summary at a call site: tainted
// arguments passed into retaining slots escape, and an order-sensitive
// callee makes this function order-sensitive — unless its receiver is
// a local born in this function, in which case the effect cannot be
// observed by our callers through that call.
func (st *funcState) sinkCall(call *ast.CallExpr) {
	callee := Callee(st.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	s := st.res.Of(callee)
	if s.isZero() {
		return
	}
	if s.OrderSensitive && !st.localReceiver(call) {
		st.out.OrderSensitive = true
	}
	if s.Retains != 0 {
		if recv := receiverExpr(call); recv != nil && s.RetainsAt(RecvIndex) {
			st.out.Retains |= st.taintOf(recv)
		}
		for i, arg := range call.Args {
			idx, ok := ArgIndex(callee, i)
			if ok && s.RetainsAt(idx) {
				st.out.Retains |= st.taintOf(arg)
			}
		}
	}
}

// localReceiver reports whether call is a method call whose receiver
// roots at a variable declared inside this function (and not a
// parameter): effects confined to such a receiver die with the frame.
func (st *funcState) localReceiver(call *ast.CallExpr) bool {
	recv := receiverExpr(call)
	if recv == nil {
		return false
	}
	root := lintutil.RootIdent(recv)
	if root == nil {
		return false
	}
	obj := st.pass.TypesInfo.ObjectOf(root)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return false
	}
	if _, isParam := st.paramSlot[obj]; isParam {
		return false
	}
	if st.globalAliases[obj] {
		return false
	}
	// A local that aliases a parameter still reaches caller memory.
	return st.taint[obj] == 0 &&
		v.Pos() >= st.fd.Body.Pos() && v.Pos() <= st.fd.Body.End()
}

// ---- Send-class scanning ------------------------------------------------
//
// sendScan derives the Broadcasts/Unicasts/ParamCalls facts by walking
// the body with an execution-class context: statements at the top level
// execute once per call (Const); entering a loop whose trip count
// is not provably constant multiplies the context by Linear (the
// conservative rule — inbox iteration, ids.Set ranges, and n-sized
// slices all look identical to a loop over any other slice, and a
// collection's element type says nothing about its length). Send sites
// contribute their context class; calls fold the callee's own classes
// amplified by the context, and function-typed arguments passed into
// slots the callee invokes contribute through ParamCalls.

// sendKind distinguishes the two primitive send sites.
type sendKind int

const (
	sendBroadcast sendKind = iota
	sendUnicast
)

func (st *funcState) sendScan() {
	st.scanSends(st.fd.Body, complexity.Const, make(map[ast.Node]bool))
}

// scanSends walks n with execution class exec. handled marks function
// literals already attributed a precise invocation class at a call
// site, so the default treatment (a stray literal may run O(n) times)
// does not double-walk them.
func (st *funcState) scanSends(n ast.Node, exec complexity.Class, handled map[ast.Node]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.ForStmt:
			inner := exec
			if !st.constTrip(x) {
				inner = exec.Mul(complexity.Linear)
			}
			if x.Init != nil {
				st.scanSends(x.Init, exec, handled)
			}
			if x.Cond != nil {
				st.scanSends(x.Cond, inner, handled)
			}
			if x.Post != nil {
				st.scanSends(x.Post, inner, handled)
			}
			st.scanSends(x.Body, inner, handled)
			return false
		case *ast.RangeStmt:
			if x.X != nil {
				st.scanSends(x.X, exec, handled)
			}
			inner := exec
			if !st.constRange(x) {
				inner = exec.Mul(complexity.Linear)
			}
			st.scanSends(x.Body, inner, handled)
			return false
		case *ast.FuncLit:
			// A literal nobody attributed: it may be stored and invoked
			// up to O(n) times (documented over-approximation; a
			// literal that sends nothing contributes nothing either
			// way).
			if !handled[x] {
				handled[x] = true
				st.scanSends(x.Body, exec.Mul(complexity.Linear), handled)
			}
			return false
		case *ast.CallExpr:
			st.scanCall(x, exec, handled)
			return true
		}
		return true
	})
}

// scanCall attributes the sends one call site performs at execution
// class exec.
func (st *funcState) scanCall(call *ast.CallExpr, exec complexity.Class, handled map[ast.Node]bool) {
	fun := ast.Unparen(call.Fun)

	// Directly invoked literal: its body runs exactly once per
	// execution of this site.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if !handled[lit] {
			handled[lit] = true
			st.scanSends(lit.Body, exec, handled)
		}
		return
	}

	// The primitive sites: env.Broadcast(p) / env.Send(to, p).
	if kind, ok := st.roundEnvSend(fun); ok {
		st.joinSend(kind, exec)
		return
	}

	// Invocation of a function-typed parameter.
	if slot, ok := st.fnParamSlot(fun); ok {
		st.out.joinParamCall(slot, exec)
		return
	}

	callee := Callee(st.pass.TypesInfo, call)
	if callee == nil {
		// Call through a function value. If the value may be a bound
		// env.Broadcast/env.Send method value (it aliases the env
		// parameter), count it as both kinds; if it aliases a
		// function-typed parameter, record the invocation. Documented
		// conservative edge (DESIGN.md §8.6).
		st.fnValueSends(call.Fun, exec)
		return
	}

	s := st.res.Of(callee)
	st.joinSend(sendBroadcast, exec.Mul(s.Broadcasts))
	st.joinSend(sendUnicast, exec.Mul(s.Unicasts))

	// Function-typed arguments flowing into slots the callee invokes.
	for i, arg := range call.Args {
		idx, ok := ArgIndex(callee, i)
		if !ok {
			continue
		}
		c := s.ParamCallsAt(idx)
		if c == complexity.None {
			continue
		}
		amp := exec.Mul(c)
		arg = ast.Unparen(arg)
		if lit, ok := arg.(*ast.FuncLit); ok {
			handled[lit] = true
			st.scanSends(lit.Body, amp, handled)
			continue
		}
		if kind, ok := st.roundEnvSend(arg); ok {
			st.joinSend(kind, amp)
			continue
		}
		if slot, ok := st.fnParamSlot(arg); ok {
			st.out.joinParamCall(slot, amp)
			continue
		}
		st.fnValueSends(arg, amp)
	}
}

// joinSend raises the named counter to at least class c (a max-fold,
// so the accumulated class is independent of visit order).
func (st *funcState) joinSend(kind sendKind, c complexity.Class) {
	if kind == sendBroadcast {
		if c > st.out.Broadcasts {
			st.out.Broadcasts = c
		}
	} else {
		if c > st.out.Unicasts {
			st.out.Unicasts = c
		}
	}
}

// roundEnvSend recognizes a bound use (call or method value) of
// simnet.RoundEnv's Broadcast or Send.
func (st *funcState) roundEnvSend(e ast.Expr) (sendKind, bool) {
	se, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	sel, ok := st.pass.TypesInfo.Selections[se]
	if !ok || sel.Kind() != types.MethodVal || !lintutil.IsRoundEnvPtr(sel.Recv()) {
		return 0, false
	}
	switch sel.Obj().Name() {
	case "Broadcast":
		return sendBroadcast, true
	case "Send":
		return sendUnicast, true
	}
	return 0, false
}

// fnParamSlot reports whether e names a function-typed parameter and
// returns its tracked slot.
func (st *funcState) fnParamSlot(e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := st.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return 0, false
	}
	slot, ok := st.paramSlot[obj]
	if !ok {
		return 0, false
	}
	if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
		return 0, false
	}
	return slot, true
}

// fnValueSends attributes a dynamic function value (called, or passed
// into an invoking slot) at class amp, based on what the value may
// alias: the env parameter (a bound send method value — join both
// kinds) or a function-typed parameter (a laundered ParamCalls edge).
func (st *funcState) fnValueSends(e ast.Expr, amp complexity.Class) {
	if amp == complexity.None {
		return
	}
	m := st.taintOf(e)
	if m == 0 {
		return
	}
	for obj, slot := range st.paramSlot {
		if m&(1<<uint(slot)) == 0 {
			continue
		}
		if lintutil.IsRoundEnvPtr(obj.Type()) {
			st.joinSend(sendBroadcast, amp)
			st.joinSend(sendUnicast, amp)
		} else if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
			st.out.joinParamCall(slot, amp)
		}
	}
}

// constTrip reports whether a for statement's trip count is provably
// independent of the participant count: its condition compares against
// a compile-time constant. Everything else — including shard bounds
// and len() of any slice — counts as an n-loop.
func (st *funcState) constTrip(n *ast.ForStmt) bool {
	if n.Cond == nil {
		return false
	}
	be, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return false
	}
	return st.constVal(be.X) || st.constVal(be.Y)
}

// constRange reports whether a range statement iterates a provably
// constant number of times: over a fixed-size array or a constant
// integer. Slices, maps, channels, strings, and iterator functions all
// count as n-loops.
func (st *funcState) constRange(n *ast.RangeStmt) bool {
	tv, ok := st.pass.TypesInfo.Types[n.X]
	if !ok {
		return false
	}
	if tv.Value != nil {
		return true // range over a constant integer
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Array:
		return true
	case *types.Pointer:
		_, isArr := t.Elem().Underlying().(*types.Array)
		return isArr
	}
	return false
}

// constVal reports whether e is a compile-time constant.
func (st *funcState) constVal(e ast.Expr) bool {
	tv, ok := st.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
