// Package complexity defines the per-round message-complexity
// vocabulary of the runtime oracle: send classes (0, O(1), O(n),
// O(n^2)), per-protocol contracts, and Registry, the one table of
// contracts.
//
// Registry is the only copy of every contract. oracle.NewComplexity
// checks the observed per-round tallies against an entry during every
// run, and TestRegistryIsTight holds each entry to the class the
// family's runs show (DESIGN.md §8).
package complexity

import "fmt"

// Class is a per-round send-count class.
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

// Bound returns the concrete per-round send budget the class grants
// one correct node among n participants: the class's leading term
// times the constant-factor slack. None grants exactly zero — a
// protocol registered unicast-free must observe no unicasts at all.
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

// Entry is one protocol family, named by its core package, and its
// contract.
type Entry struct {
	Family   string
	Contract Contract
}

// Registry returns the contract table of the nine protocol families,
// sorted by family. The runtime oracle loads it, and TestRegistryIsTight
// fails an entry whose class is not the one the family's runs grow at.
func Registry() []Entry {
	return []Entry{
		{Family: "approx", Contract: Contract{Broadcasts: Const}},
		{Family: "consensus", Contract: Contract{Broadcasts: Linear}},
		{Family: "ordering", Contract: Contract{Broadcasts: Linear, Unicasts: Linear}},
		{Family: "parallelcon", Contract: Contract{Broadcasts: Linear}},
		{Family: "relbcast", Contract: Contract{Broadcasts: Linear}},
		{Family: "renaming", Contract: Contract{Broadcasts: Linear}},
		{Family: "rotor", Contract: Contract{Broadcasts: Linear}},
		{Family: "trb", Contract: Contract{Broadcasts: Linear}},
		{Family: "vector", Contract: Contract{Broadcasts: Linear}},
	}
}

// Lookup returns the registry contract of one family.
func Lookup(family string) (Contract, bool) {
	for _, e := range Registry() {
		if e.Family == family {
			return e.Contract, true
		}
	}
	return Contract{}, false
}
