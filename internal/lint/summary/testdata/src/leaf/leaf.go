// Package leaf is the bottom of the fixture chain: its effects are
// directly visible in its bodies, and the exported facts must carry
// them up through helper into proto.
package leaf

var stash []*int

// Stash retains its argument in a package-level slice: retains slot 0.
func Stash(p *int) { // want `summary: retains\(1\)$`
	stash = append(stash, p)
}

// Tail returns a subslice of its argument: the result aliases the
// caller's backing array, so slot 0 flows.
func Tail(in []int) []int { // want `summary: flows\(1\)`
	return in[1:]
}

// Count only reads; its summary is the zero value and is not exported.
func Count(in []int) int { return len(in) }

// Copy carries the valuecopy directive, which clears Flows: the
// summary is the zero value even though the body returns a subslice.
//
//lint:valuecopy fixture stand-in for a deep-copied return
func Copy(in []int) []int { return in[1:] }
