// Package lintutil holds the pieces shared by the ubalint analyzers:
// recognition of simnet Process.Step implementations, handling of
// //lint:allow suppression directives, and small type/AST helpers used
// by the taint and alias analyses.
//
// Suppression syntax, checked by every pass:
//
//	//lint:allow <pass> <reason>
//
// where <pass> is the analyzer name (retainenv, complexity, summary)
// or "all", and <reason> is free text
// explaining why the finding is a false positive or an accepted risk.
// The reason is mandatory: a directive without one is itself reported
// and suppresses nothing. A directive suppresses matching diagnostics on
// its own line and on the following line, so it can either trail the
// offending statement or sit on its own line directly above it.
//
// A directive that names a specific pass but suppresses no diagnostic
// of that pass is itself reported (by Done) so stale allows cannot rot
// in the tree after the code they excused is refactored away. Blanket
// "all" directives are exempt from unused detection: each pass runs
// independently and cannot see whether another pass used the directive.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// directive is one parsed //lint:allow comment naming this pass.
type directive struct {
	pos    token.Pos
	pass   string // the named pass, or "all"
	used   bool   // a diagnostic was suppressed by this directive
	forAll bool
}

// Suppressor filters an analyzer's diagnostics through the //lint:allow
// directives of the package under analysis. Create one per pass run
// with NewSuppressor, report every finding through Reportf, and call
// Done at the end of the run to flag directives that suppressed
// nothing.
type Suppressor struct {
	pass *analysis.Pass
	name string
	// allowed maps filename -> line -> directives covering that line.
	allowed    map[string]map[int][]*directive
	directives []*directive
}

// NewSuppressor scans every file of the pass for //lint:allow directives
// naming the analyzer (or "all") and returns a Suppressor for it.
// Malformed directives (unknown form, missing reason) are reported
// immediately so they cannot silently suppress nothing.
func NewSuppressor(pass *analysis.Pass, name string) *Suppressor {
	s := &Suppressor{pass: pass, name: name, allowed: make(map[string]map[int][]*directive)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					pass.Reportf(c.Pos(), "malformed //lint:allow directive: want //lint:allow <pass> <reason>")
					continue
				}
				if fields[0] != name && fields[0] != "all" {
					continue // directive for another pass
				}
				if len(fields) < 2 {
					pass.Reportf(c.Pos(), "//lint:allow %s is missing a reason", fields[0])
					continue
				}
				d := &directive{pos: c.Pos(), pass: fields[0], forAll: fields[0] == "all"}
				s.directives = append(s.directives, d)
				pos := pass.Fset.Position(c.Pos())
				lines := s.allowed[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					s.allowed[pos.Filename] = lines
				}
				// A directive covers its own line and the next one, so it
				// can trail the offending statement or sit above it.
				lines[pos.Line] = append(lines[pos.Line], d)
				lines[pos.Line+1] = append(lines[pos.Line+1], d)
			}
		}
	}
	return s
}

// Reportf reports a diagnostic at pos unless an applicable //lint:allow
// directive covers that line; a covering directive is marked used.
func (s *Suppressor) Reportf(pos token.Pos, format string, args ...any) {
	p := s.pass.Fset.Position(pos)
	if ds := s.allowed[p.Filename][p.Line]; len(ds) > 0 {
		for _, d := range ds {
			d.used = true
		}
		return
	}
	s.pass.Reportf(pos, format, args...)
}

// Done reports every directive naming this pass that suppressed no
// diagnostic during the run. Call it after the pass has reported all
// its findings. Blanket "all" directives are not checked (no single
// pass can tell whether another pass used them).
func (s *Suppressor) Done() {
	for _, d := range s.directives {
		if !d.forAll && !d.used {
			s.pass.Reportf(d.pos,
				"unused //lint:allow %s directive: it suppresses no %s diagnostic", d.pass, d.pass)
		}
	}
}

// RoundEnvType returns the named type T of a parameter declared as *T
// when T is simnet.RoundEnv, and nil otherwise. The match is by package
// name and type name rather than full import path so that analyzer test
// fixtures can supply their own small simnet stand-in.
func roundEnvNamed(t types.Type) *types.Named {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "RoundEnv" || obj.Pkg() == nil || obj.Pkg().Name() != "simnet" {
		return nil
	}
	return named
}

// StepEnvParam reports whether fn implements the simnet Process.Step
// contract — a method or function whose parameter list is exactly
// (env *simnet.RoundEnv) — and returns the env parameter's object.
func StepEnvParam(fn *ast.FuncDecl, info *types.Info) (*types.Var, bool) {
	if fn.Name.Name != "Step" || fn.Body == nil {
		return nil, false
	}
	params := fn.Type.Params
	if params == nil || len(params.List) != 1 || len(params.List[0].Names) != 1 {
		return nil, false
	}
	name := params.List[0].Names[0]
	obj, ok := info.Defs[name].(*types.Var)
	if !ok || roundEnvNamed(obj.Type()) == nil {
		return nil, false
	}
	return obj, true
}

// IsRoundEnvPtr reports whether t is *simnet.RoundEnv.
func IsRoundEnvPtr(t types.Type) bool { return roundEnvNamed(t) != nil }

// RootIdent unwraps selector, index, slice, dereference, and address
// chains to the base identifier of an expression: the x in x.f[i].g,
// *x, and &x.f. It returns nil when the chain roots at something other
// than an identifier (a call result, a literal).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// RefCarrying reports whether a value of type t can carry a reference
// to memory shared with its source: pointers, slices, maps, channels,
// functions, interfaces, and composites containing any of those.
// Copying a non-ref-carrying value severs all aliasing, which is why
// taint propagation stops at such copies.
func RefCarrying(t types.Type) bool {
	return refCarrying(t, make(map[types.Type]bool))
}

func refCarrying(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarrying(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return refCarrying(u.Elem(), seen)
	default:
		// Type parameters and anything unrecognized: assume the worst.
		return true
	}
}

// PackageLevelVar returns the package-level variable at the root of an
// lvalue (unwrapping selectors, indexes, and dereferences), following
// qualified identifiers (otherpkg.Var) to the imported package's
// variable. It returns nil for locals and non-variable roots.
func PackageLevelVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return nil
			}
			return v
		case *ast.SelectorExpr:
			// A qualified identifier (otherpkg.Var) roots at the
			// imported package's variable; a field access roots at its
			// receiver expression.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					v, ok := info.Uses[x.Sel].(*types.Var)
					if !ok {
						return nil
					}
					return v
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// GlobalAliases computes, to a fixpoint, the set of local variables in
// body that may reference package-level storage: locals assigned the
// address of a package-level variable (&global), a package-level value
// of reference-carrying type (globalMap, globalSlice, globalPtr), or
// another such alias. A write through any of them mutates state shared
// across processes even though the lvalue's root identifier is local.
func GlobalAliases(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	aliases := make(map[types.Object]bool)
	aliased := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		// &global (or &global.field, &global[i]) carries a reference
		// regardless of the variable's own type.
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if PackageLevelVar(info, u.X) != nil {
				return true
			}
		}
		// globalMap, globalSlice, globalPtr: copying a reference-carrying
		// global value shares its referent.
		if PackageLevelVar(info, e) != nil {
			t := info.TypeOf(e)
			return t != nil && RefCarrying(t)
		}
		// p2 := p1 where p1 is already an alias (RootIdent sees through
		// &x, so &alias.field is covered too).
		if root := RootIdent(e); root != nil {
			if obj := info.ObjectOf(root); obj != nil && aliases[obj] {
				return true
			}
		}
		return false
	}
	record := func(lhs ast.Expr, rhs ast.Expr) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || !aliased(rhs) {
			return false
		}
		obj := info.ObjectOf(id)
		if obj == nil || aliases[obj] {
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return false // only track locals; globals are caught directly
		}
		aliases[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i := range n.Lhs {
					if record(n.Lhs[i], n.Rhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, v := range n.Values {
					if record(n.Names[i], v) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return aliases
}
