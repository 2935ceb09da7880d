// Package helper sits between proto and leaf: it has no direct effects
// of its own — everything in its summaries is inherited from leaf's
// facts across the package boundary.
package helper

import "leaf"

// Save transitively retains p through leaf.Stash.
func Save(p *int) { // want `summary: retains\(1\)$`
	leaf.Stash(p)
}

// Rest launders its argument through leaf.Tail's flow fact.
func Rest(in []int) []int { // want `summary: flows\(1\)`
	return leaf.Tail(in)
}

// Len calls only the effect-free leaf.Count: stays pure.
func Len(in []int) int { return leaf.Count(in) }
