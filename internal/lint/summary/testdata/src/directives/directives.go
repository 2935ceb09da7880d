// Package directives pins the directive-policing diagnostics: a
// fact-adjusting directive whose function never had the effect it
// clears is stale (unused), and one without a reason is inert. Both
// anchor at the function name, so the wants sit on the declaration.
package directives

var stash []*int

// Used: the append really is order-sensitive; the directive clears it
// and draws no diagnostic.
//
//lint:commutative fixture stand-in for an order-independent insert
func Used(p *int) {
	stash = append(stash, p)
}

// Unused: the body only reads, so there is nothing to clear.
//
//lint:commutative reads have no order-sensitive effects
func Unused(p *int) int { // want `unused //lint:commutative directive: Unused is not order-sensitive`
	return len(stash)
}

// NoFlow: no parameter reaches a return value.
//
//lint:valuecopy the length is a plain scalar
func NoFlow(p []int) int { // want `unused //lint:valuecopy directive: NoFlow is not flowing any parameter to a return value`
	return len(p)
}

// Inert: a directive without a reason adjusts nothing.
//
//lint:commutative
func Inert(p *int) { // want `//lint:commutative directive on Inert is inert: no reason given`
	stash = append(stash, p)
}

// Flowing: the subslice aliases the argument; the directive clears the
// flow and is used.
//
//lint:valuecopy fixture stand-in for a deep-copied return
func Flowing(in []int) []int {
	return in[1:]
}
