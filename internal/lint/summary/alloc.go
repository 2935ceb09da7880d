// Allocation-site scanning for the Allocates fact and the noalloc
// pass.
//
// The scanner is deliberately steady-state-shaped: it proves the
// *amortized* allocation-freedom the round engine actually delivers,
// not a per-call worst case, via three structural exemptions:
//
//   - capacity-guarded growth: a make or append whose enclosing if
//     condition consults cap() is the grow-once arena idiom (grown,
//     recycled, the shard table) — it allocates only until the buffers
//     reach their high-water mark;
//   - recycled self-append: dst = append(dst, ...) where dst is rooted
//     in a parameter or receiver (taint-proven) appends into a caller-
//     owned buffer that the engine pre-sizes; a self-append onto a
//     package-level slice stays flagged, since nothing bounds it;
//   - literals that cannot escape: non-capturing function literals
//     compile to static closures, deferred literals are open-coded,
//     and by-value struct literals live on the stack. Slice and map
//     literals, &composite literals, capturing closures, method
//     values, and go statements are flagged.
//
// //lint:coldpath <reason> as a line comment exempts the sites on its
// own and the following line — the error-branch escape hatch — and is
// policed for staleness like //lint:allow.
//
// False-negative edges (documented in DESIGN.md §8.7): standard-
// library callees export no facts, so only the fmt family is
// recognized by name — an allocating strconv/strings call is unseen —
// and the recycled-self-append exemption trusts the engine to pre-size
// the buffer it appends into.

package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"uba/internal/lint/lintutil"

	"golang.org/x/tools/go/analysis"
)

// Allocation-kind bits carried by FuncSummary.Allocates.
const (
	AllocMake     uint16 = 1 << iota // make of a slice, map, or channel
	AllocNew                         // new(T)
	AllocAppend                      // append that may grow its backing array
	AllocString                      // string conversion or concatenation
	AllocBox                         // concrete value boxed into an interface
	AllocLit                         // slice/map literal or &composite literal
	AllocClosure                     // capturing closure, method value, or go statement
	AllocMapWrite                    // map element insert
	AllocFmt                         // call into the fmt package
)

// allocKindNames orders the rendering of AllocsString; the order is
// the bit order, so dumps are stable.
var allocKindNames = []struct {
	bit  uint16
	name string
}{
	{AllocMake, "make"},
	{AllocNew, "new"},
	{AllocAppend, "append"},
	{AllocString, "string"},
	{AllocBox, "box"},
	{AllocLit, "lit"},
	{AllocClosure, "closure"},
	{AllocMapWrite, "mapwrite"},
	{AllocFmt, "fmt"},
}

// AllocsString renders an Allocates mask as its comma-joined kind
// names ("make,append"), the spelling the fixture dumps and the
// noalloc diagnostics use.
func AllocsString(mask uint16) string {
	var names []string
	for _, k := range allocKindNames {
		if mask&k.bit != 0 {
			names = append(names, k.name)
		}
	}
	return strings.Join(names, ",")
}

// AllocSite is one statically identified heap-allocation site that
// survived the steady-state exemptions.
type AllocSite struct {
	Pos  token.Pos
	Kind uint16
	Desc string // "an append may grow its backing array"
}

// AllocSites re-runs fd's alias analysis and returns its surviving
// allocation sites — the per-site view of the Allocates fact, consumed
// by the noalloc pass for diagnostics. It is a recomputation, not a
// cache: call it once per annotated function.
func (r *Result) AllocSites(fd *ast.FuncDecl) []AllocSite {
	st := newFuncState(r.pass, r, fd)
	st.propagate()
	return st.allocSites()
}

// ColdCovered reports whether pos sits on a line exempted by a
// reasoned line-level //lint:coldpath directive, marking the directive
// used. The noalloc pass consults it for callee-fact findings so the
// line escape hatch works uniformly for local sites and folded calls.
func (r *Result) ColdCovered(pos token.Pos) bool {
	return r.cold.covers(r.pass.Fset, pos)
}

// coldLine is one line-level //lint:coldpath directive.
type coldLine struct {
	pos      token.Pos
	reasoned bool
	used     bool
}

// coldIndex maps filename/line to the directive covering that line
// (its own line and the next, the //lint:allow convention).
type coldIndex struct {
	lines map[string]map[int]*coldLine
	all   []*coldLine
}

// newColdIndex collects the line-level //lint:coldpath directives of
// the package, excluding the doc-comment occurrences already handled
// as function-level fact adjustments.
func newColdIndex(pass *analysis.Pass, docCold map[*ast.Comment]bool) *coldIndex {
	ci := &coldIndex{lines: make(map[string]map[int]*coldLine)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:coldpath")
				if !ok || docCold[c] {
					continue
				}
				d := &coldLine{pos: c.Pos(), reasoned: len(strings.Fields(rest)) > 0}
				ci.all = append(ci.all, d)
				p := pass.Fset.Position(c.Pos())
				lines := ci.lines[p.Filename]
				if lines == nil {
					lines = make(map[int]*coldLine)
					ci.lines[p.Filename] = lines
				}
				lines[p.Line] = d
				lines[p.Line+1] = d
			}
		}
	}
	return ci
}

// covers reports whether a reasoned directive covers pos's line and
// marks it used. Nil-safe (GOROOT packages build no index).
func (ci *coldIndex) covers(fset *token.FileSet, pos token.Pos) bool {
	if ci == nil {
		return false
	}
	p := fset.Position(pos)
	d := ci.lines[p.Filename][p.Line]
	if d == nil || !d.reasoned {
		return false
	}
	d.used = true
	return true
}

// police reports unreasoned (inert) and unused line directives, in
// source order.
func (ci *coldIndex) police(sup *lintutil.Suppressor) {
	if ci == nil {
		return
	}
	for _, d := range ci.all {
		switch {
		case !d.reasoned:
			sup.Reportf(d.pos, "//lint:coldpath directive is inert: no reason given")
		case !d.used:
			sup.Reportf(d.pos, "unused //lint:coldpath directive: no allocation site on its line or the next")
		}
	}
}

// allocSites walks the body collecting the allocation sites that
// survive the steady-state exemptions and any covering coldpath line
// directives. propagate() must have run (the recycled-self-append rule
// consults taint).
func (st *funcState) allocSites() []AllocSite {
	var sites []AllocSite
	add := func(pos token.Pos, kind uint16, desc string) {
		if st.res.cold.covers(st.pass.Fset, pos) {
			return
		}
		sites = append(sites, AllocSite{Pos: pos, Kind: kind, Desc: desc})
	}

	// Selector expressions in call position are calls, not method
	// values; collect them first so the MethodVal case below can tell
	// the two apart.
	called := make(map[ast.Expr]bool)
	ast.Inspect(st.fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			called[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	// Result types, expanded positionally, for return-statement boxing.
	var resultTypes []types.Type
	if st.fd.Type.Results != nil {
		for _, field := range st.fd.Type.Results.List {
			t := st.pass.TypesInfo.TypeOf(field.Type)
			k := len(field.Names)
			if k == 0 {
				k = 1
			}
			for ; k > 0; k-- {
				resultTypes = append(resultTypes, t)
			}
		}
	}

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
			if !deferredLit(n, stack) && st.capturesLocal(n) {
				add(n.Pos(), AllocClosure, "a closure capturing enclosing variables allocates")
			}
		case *ast.GoStmt:
			add(n.Pos(), AllocClosure, "a go statement allocates a goroutine")
		case *ast.CallExpr:
			st.allocCall(n, stack, add)
		case *ast.SelectorExpr:
			if sel, ok := st.pass.TypesInfo.Selections[n]; ok &&
				sel.Kind() == types.MethodVal && !called[n] {
				add(n.Pos(), AllocClosure, "a method value allocates its binding")
			}
		case *ast.CompositeLit:
			if t := st.pass.TypesInfo.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(n.Pos(), AllocLit, "a slice or map literal allocates its backing store")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), AllocLit, "an addressed composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && st.stringTyped(ast.Expr(n)) && !st.constVal(n) {
				add(n.Pos(), AllocString, "a string concatenation allocates")
			}
		case *ast.AssignStmt:
			st.allocAssign(n, add)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && st.mapIndexed(ix) {
				add(n.Pos(), AllocMapWrite, "a map element update may allocate")
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if t := st.pass.TypesInfo.TypeOf(n.Type); t != nil {
					for _, v := range n.Values {
						if st.boxes(t, v) {
							add(v.Pos(), AllocBox, "an interface conversion boxes its operand")
						}
					}
				}
			}
		case *ast.ReturnStmt:
			if funcDepth == 0 && len(n.Results) == len(resultTypes) {
				for i, r := range n.Results {
					if st.boxes(resultTypes[i], r) {
						add(r.Pos(), AllocBox, "an interface conversion boxes its operand")
					}
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return sites
}

// allocAssign flags map writes, string concat-assign, and interface
// boxing on the assignment's value positions.
func (st *funcState) allocAssign(n *ast.AssignStmt, add func(token.Pos, uint16, string)) {
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && st.mapIndexed(ix) {
			add(lhs.Pos(), AllocMapWrite, "a map write may allocate")
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && st.stringTyped(n.Lhs[0]) {
		add(n.Lhs[0].Pos(), AllocString, "a string concatenation allocates")
	}
	if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if st.boxes(st.pass.TypesInfo.TypeOf(n.Lhs[i]), rhs) {
				add(rhs.Pos(), AllocBox, "an interface conversion boxes its operand")
			}
		}
	}
}

// allocCall classifies one call expression: conversions, builtins,
// fmt-family calls, and boxing into interface-typed parameters.
// Folding of non-std callee Allocates facts happens in sinkCall; this
// only covers the sites local to the body.
func (st *funcState) allocCall(call *ast.CallExpr, stack []ast.Node, add func(token.Pos, uint16, string)) {
	info := st.pass.TypesInfo

	// Conversions: to string from anything but a string allocates, as
	// does string -> []byte/[]rune; a conversion to an interface type
	// boxes. Constant operands convert to static data.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		to, arg := tv.Type, call.Args[0]
		switch {
		case isStringType(to) && !isStringType(info.TypeOf(arg)) && !st.constVal(arg):
			add(call.Pos(), AllocString, "a conversion to string allocates")
		case isByteRuneSlice(to) && isStringType(info.TypeOf(arg)):
			add(call.Pos(), AllocString, "a string-to-slice conversion allocates")
		case st.boxes(to, arg):
			add(call.Pos(), AllocBox, "an interface conversion boxes its operand")
		}
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !capGuarded(info, stack) {
					add(call.Pos(), AllocMake, "make allocates")
				}
			case "new":
				add(call.Pos(), AllocNew, "new allocates")
			case "append":
				if !capGuarded(info, stack) && !st.recycledAppend(call, stack) {
					add(call.Pos(), AllocAppend, "an append may grow its backing array")
				}
			}
			return
		}
	}

	callee := Callee(info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		// One site covers the whole call: the implied boxing of its
		// arguments is subsumed, so a single coldpath line exempts an
		// error-formatting statement entirely.
		add(call.Pos(), AllocFmt, "a fmt call allocates")
		return
	}

	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if st.boxes(paramType(sig, i, call), arg) {
			add(arg.Pos(), AllocBox, "passing a concrete value to an interface parameter boxes it")
		}
	}
}

// recycledAppend reports whether call is the self-append idiom
// dst = append(dst, ...) with dst rooted in a parameter or receiver:
// an append into a caller-owned, engine-pre-sized buffer.
func (st *funcState) recycledAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 || st.taintOf(call.Args[0]) == 0 || len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	dst := types.ExprString(ast.Unparen(call.Args[0]))
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call {
			return types.ExprString(ast.Unparen(as.Lhs[i])) == dst
		}
	}
	return false
}

// capturesLocal reports whether the literal references a variable of
// the enclosing function (parameter, receiver, or local) — the capture
// that forces a heap-allocated closure. Package-level variables and
// fields cost nothing extra.
func (st *funcState) capturesLocal(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := st.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own declaration
		}
		if v.Pos() >= st.fd.Pos() && v.Pos() <= st.fd.End() {
			found = true
		}
		return true
	})
	return found
}

// deferredLit reports whether the literal is invoked directly by a
// defer statement: open-coded defers keep such closures off the heap.
func deferredLit(lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok || ast.Unparen(call.Fun) != lit {
		return false
	}
	_, ok = stack[len(stack)-2].(*ast.DeferStmt)
	return ok
}

// capGuarded reports whether an enclosing if condition (within the
// same function literal) consults cap(): the grow-once arena idiom.
func capGuarded(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			if mentionsCap(info, n.Cond) {
				return true
			}
		}
	}
	return false
}

// mentionsCap reports whether e contains a call to the cap builtin.
func mentionsCap(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "cap" {
				found = true
			}
		}
		return !found
	})
	return found
}

// boxes reports whether assigning/passing the expression from to a
// location of type to converts a concrete value into an interface in a
// way that heap-allocates: interface-to-interface conversions, nils,
// constants (static data), pointer-shaped values (stored directly in
// the data word), and zero-size structs (a shared sentinel) do not.
func (st *funcState) boxes(to types.Type, from ast.Expr) bool {
	if to == nil || !types.IsInterface(to) {
		return false
	}
	tv, ok := st.pass.TypesInfo.Types[from]
	if !ok || tv.Value != nil || tv.Type == nil {
		return false
	}
	ft := tv.Type
	if types.IsInterface(ft) {
		return false
	}
	switch u := ft.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UntypedNil || u.Kind() == types.Invalid || u.Kind() == types.UnsafePointer {
			return false
		}
	case *types.Struct:
		if u.NumFields() == 0 {
			return false
		}
	}
	return true
}

// paramType returns the type of the parameter receiving the i'th
// argument, unwrapping a variadic tail (unless the call spreads with
// ...), or nil when out of range.
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	np := sig.Params().Len()
	if np == 0 {
		return nil
	}
	if sig.Variadic() && i >= np-1 {
		last := sig.Params().At(np - 1).Type()
		if call.Ellipsis.IsValid() {
			if i == np-1 {
				return last
			}
			return nil
		}
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i < np {
		return sig.Params().At(i).Type()
	}
	return nil
}

// stringTyped reports whether e has string type.
func (st *funcState) stringTyped(e ast.Expr) bool {
	return isStringType(st.pass.TypesInfo.TypeOf(e))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteRuneSlice reports whether t is a []byte or []rune shape.
func isByteRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// mapIndexed reports whether ix indexes a map.
func (st *funcState) mapIndexed(ix *ast.IndexExpr) bool {
	t := st.pass.TypesInfo.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
