// Package leaf is the bottom of the fixture chain: its effects are
// directly visible in its bodies, and the exported facts must carry
// them up through helper into proto.
package leaf

var stash []*int

// Stash retains its argument in a package-level slice: retains slot 0
// and collects in call order.
func Stash(p *int) { // want `summary: retains\(1\)\+ordersensitive`
	stash = append(stash, p)
}

// Tail returns a subslice of its argument: the result aliases the
// caller's backing array, so slot 0 flows.
func Tail(in []int) []int { // want `summary: flows\(1\)`
	return in[1:]
}

// Count only reads; its summary is the zero value and is not exported.
func Count(in []int) int { return len(in) }

// Insert looks order-sensitive (append to a global) but carries the
// commutativity directive, which clears OrderSensitive and keeps the
// retention fact intact.
//
//lint:commutative fixture stand-in for a sorted insert; final state is order-independent
func Insert(p *int) { // want `summary: retains\(1\)$`
	stash = append(stash, p)
}

// InsertInert carries a reason-less directive, which is inert: the full
// effect set survives.
//
//lint:commutative
func InsertInert(p *int) { // want `summary: retains\(1\)\+ordersensitive`
	stash = append(stash, p)
}
