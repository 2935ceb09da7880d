// Package wirereg implements the ubalint pass that cross-checks the
// switch-based wire registration in uba/internal/wire: every Payload
// implementation must carry a distinct Kind tag and appear in the
// AppendEncode type switch, the Decode switch and the Kind.String
// switch, so forgetting to register a new message type is a lint error
// instead of a panic or an ErrUnknownKind decode failure
// mid-experiment.
//
// The pass applies to any package that declares the registration shape
// structurally (so its fixtures can supply a trimmed-down stand-in): an
// interface named Payload whose method set includes Kind() returning a
// named type Kind declared in the same package. Within such a package
// it checks, for every non-test named type implementing Payload:
//
//   - its Kind() method returns a single named Kind constant (the tag);
//     anything harder to evaluate statically is itself reported
//   - no other implementation returns the same constant
//   - the type appears as a case of a type switch in the package-level
//     AppendEncode function
//   - the tag appears as a case in the package-level Decode function
//   - the tag appears as a case in the Kind.String method
//
// The AppendEncode, Decode and String checks are skipped when the
// package declares no such function/method. Findings can be suppressed with
// //lint:allow wirereg <reason>.
package wirereg

import (
	"go/ast"
	"go/types"

	"uba/internal/lint/lintutil"

	"golang.org/x/tools/go/analysis"
)

// Analyzer is the wirereg pass.
var Analyzer = &analysis.Analyzer{
	Name: "wirereg",
	Doc: "cross-check Payload implementations against the wire Decode and Kind.String switches: " +
		"an unregistered message type must fail the build, not a run",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	scope := pass.Pkg.Scope()

	kindObj, _ := scope.Lookup("Kind").(*types.TypeName)
	payloadObj, _ := scope.Lookup("Payload").(*types.TypeName)
	if kindObj == nil || payloadObj == nil {
		return nil, nil
	}
	iface, ok := payloadObj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil, nil
	}
	kindMethod := findKindMethod(iface, kindObj)
	if kindMethod == nil {
		return nil, nil // Payload has no Kind() Kind method: not the registration shape
	}

	sup := lintutil.NewSuppressor(pass, "wirereg")
	decls := methodDecls(pass)

	encodeCases, hasEncode := typeCases(pass, decls, funcNamed(scope, "AppendEncode"))
	decodeCases, hasDecode := switchCases(pass, decls, funcNamed(scope, "Decode"), kindObj)
	stringCases, hasString := switchCases(pass, decls, methodNamed(pass, kindObj, "String"), kindObj)

	// byTag remembers the first implementation seen per tag so duplicates
	// can name both parties.
	byTag := make(map[types.Object]*types.TypeName)
	for _, impl := range implementations(pass, scope, iface) {
		m := lookupMethod(impl.Type(), "Kind")
		if m == nil {
			continue
		}
		tag := constReturn(pass, decls[m], kindObj)
		if tag == nil {
			sup.Reportf(impl.Pos(),
				"cannot determine the wire kind of payload %s: its Kind method must return a single named Kind constant",
				impl.Name())
			continue
		}
		if prev, dup := byTag[tag]; dup {
			sup.Reportf(impl.Pos(),
				"payloads %s and %s both encode as %s: kind tags must be distinct",
				prev.Name(), impl.Name(), tag.Name())
		} else {
			byTag[tag] = impl
		}
		if hasEncode && !encodeCases[impl] {
			sup.Reportf(impl.Pos(),
				"payload %s (kind %s) has no case in AppendEncode: sending it panics at runtime",
				impl.Name(), tag.Name())
		}
		if hasDecode && !decodeCases[tag] {
			sup.Reportf(impl.Pos(),
				"payload %s (kind %s) has no case in Decode: messages of this kind fail to decode at runtime",
				impl.Name(), tag.Name())
		}
		if hasString && !stringCases[tag] {
			sup.Reportf(impl.Pos(),
				"payload %s (kind %s) has no case in Kind.String: its diagnostics print as a raw byte",
				impl.Name(), tag.Name())
		}
	}
	sup.Done()
	return nil, nil
}

// findKindMethod returns the interface's Kind() method when its single
// result is the package's named Kind type, nil otherwise.
func findKindMethod(iface *types.Interface, kindObj *types.TypeName) *types.Func {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "Kind" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return nil
		}
		named, ok := sig.Results().At(0).Type().(*types.Named)
		if !ok || named.Obj() != kindObj {
			return nil
		}
		return m
	}
	return nil
}

// methodDecls maps every function object of the package to its AST
// declaration.
func methodDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// implementations returns the package's named non-interface types that
// implement iface (by value or by pointer), in scope order, skipping
// types declared in _test.go files.
func implementations(pass *analysis.Pass, scope *types.Scope, iface *types.Interface) []*types.TypeName {
	var out []*types.TypeName
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		if lintutil.IsTestFile(pass.Fset, tn.Pos()) {
			continue
		}
		if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
			out = append(out, tn)
		}
	}
	return out
}

// lookupMethod returns t's method named name, looking through the
// pointer method set as well.
func lookupMethod(t types.Type, name string) *types.Func {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, name)
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			return fn
		}
	}
	return nil
}

// funcNamed returns the package-level function with the given name.
func funcNamed(scope *types.Scope, name string) *types.Func {
	fn, _ := scope.Lookup(name).(*types.Func)
	return fn
}

// methodNamed returns the named method of the type tn declares.
func methodNamed(pass *analysis.Pass, tn *types.TypeName, name string) *types.Func {
	return lookupMethod(tn.Type(), name)
}

// switchCases collects the Kind constants appearing in case clauses of
// fn's body. ok is false when fn (or its body) is absent, in which case
// the corresponding registration check is skipped.
func switchCases(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, fn *types.Func, kindObj *types.TypeName) (map[types.Object]bool, bool) {
	if fn == nil {
		return nil, false
	}
	fd := decls[fn]
	if fd == nil || fd.Body == nil {
		return nil, false
	}
	cases := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if c := kindConst(pass, e, kindObj); c != nil {
				cases[c] = true
			}
		}
		return true
	})
	return cases, true
}

// typeCases collects the named types (or pointers to them) appearing in
// the case clauses of type switches in fn's body. ok is false when fn
// (or its body) is absent, in which case the check is skipped.
func typeCases(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, fn *types.Func) (map[*types.TypeName]bool, bool) {
	if fn == nil {
		return nil, false
	}
	fd := decls[fn]
	if fd == nil || fd.Body == nil {
		return nil, false
	}
	cases := make(map[*types.TypeName]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, stmt := range sw.Body.List {
			for _, e := range stmt.(*ast.CaseClause).List {
				t := pass.TypesInfo.TypeOf(e)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					cases[named.Obj()] = true
				}
			}
		}
		return true
	})
	return cases, true
}

// kindConst resolves e to a package-level constant of the Kind type.
func kindConst(pass *analysis.Pass, e ast.Expr, kindObj *types.TypeName) types.Object {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok {
		return nil
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj() != kindObj {
		return nil
	}
	return c
}

// constReturn extracts the single Kind constant a Kind() method body
// returns, or nil when the body is absent, has multiple differing
// returns, or computes its result.
func constReturn(pass *analysis.Pass, fd *ast.FuncDecl, kindObj *types.TypeName) types.Object {
	if fd == nil || fd.Body == nil {
		return nil
	}
	var tag types.Object
	bad := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || bad {
			return !bad
		}
		if len(ret.Results) != 1 {
			bad = true
			return false
		}
		c := kindConst(pass, ret.Results[0], kindObj)
		if c == nil || (tag != nil && tag != c) {
			bad = true
			return false
		}
		tag = c
		return true
	})
	if bad {
		return nil
	}
	return tag
}
