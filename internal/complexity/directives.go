package complexity

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// FuncDirective is one function-level lint contract found by
// ScanFuncDirectives: a //lint:noalloc or doc-level //lint:coldpath
// occurrence, with the reason the directive declares.
// Together with the //lint:complexity table (Directive/Scan) it forms
// the repo's certified-contracts inventory — what `ubalint
// -contracts-dump` emits and CI archives per commit.
type FuncDirective struct {
	// Directive is the bare directive name: "noalloc" or "coldpath".
	Directive string `json:"directive"`
	// Package is the declaring package name.
	Package string `json:"package"`
	// Func is the annotated function, receiver-qualified for methods
	// ("(*Network).route").
	Func string `json:"func"`
	// Reason is the directive's mandatory justification text.
	Reason string `json:"reason"`
	// Pos is file:line of the directive comment, repo-relative when
	// root is.
	Pos string `json:"pos"`
}

// ScanFuncDirectives walks the Go files under root (walkGoFiles, exactly
// as Scan does) and extracts the named function-level directives from
// function doc comments, sorted by (package, func, directive).
// Line-level //lint:coldpath comments inside bodies are deliberately out
// of scope: they exempt sites, not functions, and the summary pass
// polices them in place.
func ScanFuncDirectives(root string, names ...string) ([]FuncDirective, error) {
	prefixes := make([]string, len(names))
	for i, n := range names {
		prefixes[i] = "//lint:" + n
	}
	var out []FuncDirective
	err := walkGoFiles(root, func(fset *token.FileSet, f *ast.File) error {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				for i, prefix := range prefixes {
					rest, ok := strings.CutPrefix(c.Text, prefix)
					if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
						continue
					}
					pos := fset.Position(c.Pos())
					out = append(out, FuncDirective{
						Directive: names[i],
						Package:   f.Name.Name,
						Func:      funcName(fd),
						Reason:    strings.TrimSpace(rest),
						Pos:       fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
					})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Package != out[j].Package {
			return out[i].Package < out[j].Package
		}
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Directive < out[j].Directive
	})
	return out, nil
}

// funcName renders a declaration's name, receiver-qualified for
// methods: "route" becomes "(*Network).route".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var recv strings.Builder
	if err := printRecv(&recv, fd.Recv.List[0].Type); err != nil {
		return fd.Name.Name
	}
	return "(" + recv.String() + ")." + fd.Name.Name
}

// printRecv renders the small expression grammar receiver types use:
// an identifier, a pointer to one, or a generic instantiation.
func printRecv(b *strings.Builder, e ast.Expr) error {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.StarExpr:
		b.WriteString("*")
		return printRecv(b, e.X)
	case *ast.IndexExpr:
		if err := printRecv(b, e.X); err != nil {
			return err
		}
		b.WriteString("[")
		if err := printRecv(b, e.Index); err != nil {
			return err
		}
		b.WriteString("]")
	case *ast.IndexListExpr:
		if err := printRecv(b, e.X); err != nil {
			return err
		}
		b.WriteString("[")
		for i, ix := range e.Indices {
			if i > 0 {
				b.WriteString(", ")
			}
			if err := printRecv(b, ix); err != nil {
				return err
			}
		}
		b.WriteString("]")
	default:
		return fmt.Errorf("unrenderable receiver type %T", e)
	}
	return nil
}
