// Package directives pins the directive-policing diagnostics: a
// fact-adjusting directive whose function never had the effect it
// clears is stale (unused), and one without a reason is inert. Both
// anchor at the function name, so the wants sit on the declaration.
package directives

// NoFlow: no parameter reaches a return value.
//
//lint:valuecopy the length is a plain scalar
func NoFlow(p []int) int { // want `unused //lint:valuecopy directive: NoFlow is not flowing any parameter to a return value`
	return len(p)
}

// Inert: a directive without a reason adjusts nothing.
//
//lint:valuecopy
func Inert(in []int) []int { // want `//lint:valuecopy directive on Inert is inert: no reason given`
	return in[1:]
}

// Flowing: the subslice aliases the argument; the directive clears the
// flow and is used.
//
//lint:valuecopy fixture stand-in for a deep-copied return
func Flowing(in []int) []int {
	return in[1:]
}
