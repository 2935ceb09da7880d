// Package summary implements the ubalint fact pass: a per-function,
// interprocedural send-class analysis whose results the complexity pass
// consumes. It turns sends delegated to a helper — directly, or through
// a function-typed parameter the helper invokes — into facts that cross
// package boundaries.
//
// For every function with a body the pass computes a FuncSummary:
// Broadcasts, Unicasts and ParamCalls (see FuncSummary).
//
// Summaries are resolved to a fixpoint over the package's internal call
// graph (mutual recursion converges because the lattice is finite and
// effects only accumulate) and exported as analysis.Facts, so the
// unitchecker propagates them across package boundaries through the
// same .vetx files that carry export data. Callees with no summary —
// interface methods with no static callee, function values, bodyless
// declarations — are assumed send-free; dynamic dispatch is a
// documented remaining edge (DESIGN.md "Static analysis").
//
// Standard-library packages (sources under GOROOT) are not summarized:
// they never hold a simnet.RoundEnv, so std callees fall under the
// send-free-by-default rule.
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
// summary tracks; a function-typed parameter beyond it is not tracked,
// which keeps the fact a fixed-size word.
const MaxTracked = 32

// FuncSummary is the exported fact: the sends of one function. The zero
// value means "no sends" and is never exported (absence of a fact is
// the common case).
type FuncSummary struct {
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

// ParamCallsAt returns the send class of how often the function
// invokes a function value bound to tracked slot i.
func (s FuncSummary) ParamCallsAt(i int) complexity.Class {
	if i < 0 || i >= MaxTracked {
		return complexity.None
	}
	return complexity.Class(s.ParamCalls>>(2*uint(i))) & 3
}

// joinParamCall raises slot i's invocation class to at least c.
func (s *FuncSummary) joinParamCall(i int, c complexity.Class) {
	if i < 0 || i >= MaxTracked || c <= s.ParamCallsAt(i) {
		return
	}
	shift := 2 * uint(i)
	s.ParamCalls = s.ParamCalls&^(3<<shift) | uint64(c)<<shift
}

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

// Analyzer is the summary pass. It exists for its facts and its Result
// and reports nothing.
var Analyzer = &analysis.Analyzer{
	Name:       "summary",
	Doc:        "compute per-function send-class facts for the complexity pass",
	Run:        run,
	FactTypes:  []analysis.Fact{(*FuncSummary)(nil)},
	ResultType: reflect.TypeOf((*Result)(nil)),
}

// Result looks up function summaries: locally computed ones for the
// package under analysis, imported facts for everything else. The
// complexity pass holds it via pass.ResultOf[summary.Analyzer].
type Result struct {
	pass  *analysis.Pass
	local map[*types.Func]FuncSummary
}

// Of returns fn's summary, or the zero summary when fn is nil or sends
// nothing on record (bodyless functions, interface methods, functions
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

func run(pass *analysis.Pass) (any, error) {
	res := &Result{pass: pass, local: make(map[*types.Func]FuncSummary)}
	if inGOROOT(pass) {
		return res, nil
	}

	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
				res.local[fn] = FuncSummary{}
			}
		}
	}

	// Fixpoint over the package-internal call graph: recompute every
	// summary against the current ones until nothing grows. Classes only
	// accumulate, so mutual recursion converges.
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if s := analyzeFunc(pass, res, fd); s != res.local[fn] {
				res.local[fn] = s
				changed = true
			}
		}
	}

	// Export non-trivial summaries so downstream packages see them.
	for fn, s := range res.local {
		if s != (FuncSummary{}) {
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
// which is slower but never wrong about our own packages.
func inGOROOT(pass *analysis.Pass) bool {
	root := build.Default.GOROOT
	if root == "" || len(pass.Files) == 0 {
		return false
	}
	file := pass.Fset.Position(pass.Files[0].Pos()).Filename
	return strings.HasPrefix(file, filepath.Clean(root)+string(filepath.Separator))
}

// funcState is the per-function analysis state.
type funcState struct {
	pass *analysis.Pass
	res  *Result
	fd   *ast.FuncDecl
	// paramSlot maps each *simnet.RoundEnv and function-typed parameter
	// to its tracked slot.
	paramSlot map[types.Object]int
	// bound maps a local function value to the parameter slots it may
	// be bound to: a method value of the env, a function-typed
	// parameter, or a literal capturing either.
	bound map[types.Object]uint32
	out   FuncSummary
}

func analyzeFunc(pass *analysis.Pass, res *Result, fd *ast.FuncDecl) FuncSummary {
	st := &funcState{
		pass:      pass,
		res:       res,
		fd:        fd,
		paramSlot: make(map[types.Object]int),
		bound:     make(map[types.Object]uint32),
	}
	slot := 0
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				slot++ // an unnamed parameter still occupies its slot
			}
			for _, name := range field.Names {
				if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && slot < MaxTracked && st.sends(obj.Type()) {
					st.paramSlot[obj] = slot
				}
				slot++
			}
		}
	}
	st.bind()
	st.scanSends(fd.Body, complexity.Const, make(map[ast.Node]bool))
	return st.out
}

// sends reports whether a parameter of type t can carry sends out of the
// function: the env itself, or a function value.
func (st *funcState) sends(t types.Type) bool {
	_, isSig := t.Underlying().(*types.Signature)
	return isSig || lintutil.IsRoundEnvPtr(t)
}

// bind grows st.bound to a fixpoint over the body's assignments.
func (st *funcState) bind() {
	record := func(lhs, rhs ast.Expr) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		obj := st.pass.TypesInfo.ObjectOf(id)
		m := st.slotsOf(rhs)
		if obj == nil || m == 0 || st.bound[obj]&m == m {
			return false
		}
		st.bound[obj] |= m
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(st.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i := range n.Lhs {
					if len(n.Lhs) == len(n.Rhs) && record(n.Lhs[i], n.Rhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i := range n.Names {
					if len(n.Names) == len(n.Values) && record(n.Names[i], n.Values[i]) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// slotsOf returns the parameter slots a function value e may be bound
// to.
func (st *funcState) slotsOf(e ast.Expr) uint32 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := st.pass.TypesInfo.ObjectOf(e)
		if slot, ok := st.paramSlot[obj]; ok {
			return 1 << uint(slot)
		}
		return st.bound[obj]
	case *ast.SelectorExpr:
		if sel, ok := st.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.MethodVal {
			return st.slotsOf(e.X)
		}
	case *ast.FuncLit:
		var m uint32
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				m |= st.slotsOf(id)
			}
			return true
		})
		return m
	}
	return 0
}

// ---- Send-class scanning ------------------------------------------------
//
// scanSends derives the Broadcasts/Unicasts/ParamCalls facts by walking
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

	callee := typeutil.StaticCallee(st.pass.TypesInfo, call)
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
	m := st.slotsOf(e)
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
