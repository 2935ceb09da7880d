// Package complexity defines the per-round message-complexity
// vocabulary shared by the static certifier and the runtime oracle:
// send classes (0, O(1), O(n), O(n^2)), per-protocol contracts, the
// registry of certified families, and a parser-only scanner that
// extracts //lint:complexity directives from source.
//
// A contract is declared on a protocol's Process type:
//
//	//lint:complexity broadcasts=O(n) unicasts=0
//
// The ubalint complexity pass proves the declaration against the
// Step implementation (DESIGN.md §8.6); `ubalint -complexity-dump`
// emits the scanned table as JSON; and oracle.NewComplexity checks
// the observed per-round tallies against the declared class during
// every campaign. Registry pins the expected table so a drifted or
// deleted directive fails the cross-check test rather than silently
// weakening the oracle.
package complexity

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Class is a per-round send-count class. The numeric values match the
// summary pass's send classes (SendNone..SendQuad).
type Class uint8

// Classes, ordered: each is an upper bound subsuming the ones below.
const (
	None      Class = iota // no sends in any round
	Const                  // O(1) sends per round
	Linear                 // O(n) sends per round
	Quadratic              // O(n^2) sends per round
)

// String renders the class the way the directive spells it.
func (c Class) String() string {
	switch c {
	case None:
		return "0"
	case Const:
		return "O(1)"
	case Linear:
		return "O(n)"
	case Quadratic:
		return "O(n^2)"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// MarshalJSON renders the class as its directive spelling, so dumped
// contract tables read the way the source declares them.
func (c Class) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON accepts the directive spelling.
func (c *Class) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseClass(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// ParseClass parses the directive spelling of a class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "0":
		return None, nil
	case "O(1)":
		return Const, nil
	case "O(n)":
		return Linear, nil
	case "O(n^2)":
		return Quadratic, nil
	}
	return None, fmt.Errorf("unknown complexity class %q (want 0, O(1), O(n), or O(n^2))", s)
}

// Bound returns the concrete per-round send budget the class grants
// one correct node among n participants: the class's leading term
// times the constant-factor slack. None grants exactly zero — a
// protocol certified unicast-free must observe no unicasts at all.
func (c Class) Bound(n, slack int) int {
	switch c {
	case None:
		return 0
	case Const:
		return slack
	case Linear:
		return slack * n
	default:
		return slack * n * n
	}
}

// Contract is one protocol family's declared per-round send classes.
type Contract struct {
	Broadcasts Class `json:"broadcasts"`
	Unicasts   Class `json:"unicasts"`
}

// String renders the contract in directive argument order.
func (ct Contract) String() string {
	return fmt.Sprintf("broadcasts=%s unicasts=%s", ct.Broadcasts, ct.Unicasts)
}

// ParseContract parses the directive's argument list: space-separated
// key=value fields with keys broadcasts and unicasts, each at most
// once; an omitted key means 0 (no sends of that kind).
func ParseContract(args string) (Contract, error) {
	var ct Contract
	seen := make(map[string]bool)
	for _, field := range strings.Fields(args) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return ct, fmt.Errorf("malformed field %q (want key=class)", field)
		}
		if seen[key] {
			return ct, fmt.Errorf("duplicate field %q", key)
		}
		seen[key] = true
		c, err := ParseClass(val)
		if err != nil {
			return ct, err
		}
		switch key {
		case "broadcasts":
			ct.Broadcasts = c
		case "unicasts":
			ct.Unicasts = c
		default:
			return ct, fmt.Errorf("unknown field %q (want broadcasts or unicasts)", key)
		}
	}
	return ct, nil
}

// Entry is one certified protocol family: the core package, the
// Process type carrying the directive, and its contract.
type Entry struct {
	Family   string   `json:"family"`
	Type     string   `json:"type"`
	Contract Contract `json:"contract"`
}

// Registry returns the certified contract table for the nine protocol
// families, sorted by (family, type). This is the authoritative copy
// the runtime oracle loads; TestRegistryMatchesDirectives pins it
// against the //lint:complexity directives the lint pass certifies, so
// the two cannot drift apart.
func Registry() []Entry {
	return []Entry{
		{Family: "approx", Type: "Iterated", Contract: Contract{Broadcasts: Const}},
		{Family: "approx", Type: "Node", Contract: Contract{Broadcasts: Const}},
		{Family: "consensus", Type: "Node", Contract: Contract{Broadcasts: Linear}},
		{Family: "ordering", Type: "Node", Contract: Contract{Broadcasts: Quadratic, Unicasts: Linear}},
		{Family: "parallelcon", Type: "Node", Contract: Contract{Broadcasts: Linear}},
		{Family: "relbcast", Type: "Node", Contract: Contract{Broadcasts: Linear}},
		{Family: "renaming", Type: "Node", Contract: Contract{Broadcasts: Linear}},
		{Family: "rotor", Type: "Node", Contract: Contract{Broadcasts: Linear}},
		{Family: "trb", Type: "Node", Contract: Contract{Broadcasts: Linear}},
		{Family: "vector", Type: "Node", Contract: Contract{Broadcasts: Linear}},
	}
}

// Lookup returns the registry contract of one family's primary
// Process type ("Node" for every family).
func Lookup(family string) (Contract, bool) {
	for _, e := range Registry() {
		if e.Family == family && e.Type == "Node" {
			return e.Contract, true
		}
	}
	return Contract{}, false
}

// Directive is one //lint:complexity occurrence found by Scan.
type Directive struct {
	Family   string   `json:"family"` // declaring package name
	Type     string   `json:"type"`   // annotated type
	Contract Contract `json:"contract"`
	Pos      string   `json:"pos"` // file:line, repo-relative when root is
}

// walkGoFiles parses every non-test Go file under root with its
// comments, skipping testdata, vendor and _/. directories, and hands
// each to visit: the one directory walk behind Scan and
// ScanFuncDirectives. It uses only go/parser, so the ubalint binary can
// serve -complexity-dump and -contracts-dump without a full
// type-checking driver.
func walkGoFiles(root string, visit func(fset *token.FileSet, f *ast.File) error) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
				if path != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		return visit(fset, f)
	})
}

// Scan walks the Go files under root (walkGoFiles) and extracts every
// //lint:complexity directive from type declarations, sorted by
// (family, type).
func Scan(root string) ([]Directive, error) {
	var out []Directive
	err := walkGoFiles(root, func(fset *token.FileSet, f *ast.File) error {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if doc == nil {
					continue
				}
				for _, c := range doc.List {
					args, ok := strings.CutPrefix(c.Text, "//lint:complexity")
					if !ok {
						continue
					}
					ct, err := ParseContract(args)
					if err != nil {
						return fmt.Errorf("%s: //lint:complexity on %s: %v",
							fset.Position(c.Pos()), ts.Name.Name, err)
					}
					pos := fset.Position(c.Pos())
					out = append(out, Directive{
						Family:   f.Name.Name,
						Type:     ts.Name.Name,
						Contract: ct,
						Pos:      fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
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
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Type < out[j].Type
	})
	return out, nil
}
