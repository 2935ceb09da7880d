// Package complexity defines the per-round message-complexity
// vocabulary shared by the static certifier and the runtime oracle:
// send classes (0, O(1), O(n), O(n^2)), per-protocol contracts, and
// Registry, the one table of certified families.
//
// Registry is the only copy of every contract. The ubalint complexity
// pass proves each entry against its type's Step implementation
// (DESIGN.md §8.6), and oracle.NewComplexity checks the observed
// per-round tallies against the same entry during every run.
package complexity

import "fmt"

// Class is a per-round send-count class. The summary pass derives its
// Broadcasts/Unicasts/ParamCalls facts in the same lattice.
type Class uint8

// Classes, ordered: each is an upper bound subsuming the ones below.
const (
	None      Class = iota // no sends in any round
	Const                  // O(1) sends per round
	Linear                 // O(n) sends per round
	Quadratic              // O(n^2) sends per round
)

// String renders the class in big-O notation.
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

// Mul composes classes multiplicatively: a send of class b executed
// from a context of class c (a loop body, an amplified callee) lands at
// c+b-1 capped at Quadratic; anything times None is None.
// Const.Mul(x) == x.
func (c Class) Mul(b Class) Class {
	if c == None || b == None {
		return None
	}
	if m := c + b - 1; m < Quadratic {
		return m
	}
	return Quadratic
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

// Contract is one protocol family's per-round send classes.
type Contract struct {
	Broadcasts Class
	Unicasts   Class
}

// Entry is one certified protocol family: the core package's name, the
// Process type whose Step the contract covers, and the contract.
type Entry struct {
	Family   string
	Type     string
	Contract Contract
}

// Registry returns the certified contract table for the nine protocol
// families, sorted by (family, type). The runtime oracle loads it, and
// the ubalint complexity pass certifies each entry inside the package
// named Family, so an entry that drifts from its Step fails `make lint`.
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
