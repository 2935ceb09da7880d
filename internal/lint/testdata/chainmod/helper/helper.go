// Package helper is the pass-through layer: it has no effects of its
// own, so every fact in its summaries was imported from leaf's .vetx
// file. A second hop (proto) then proves transitive propagation.
package helper

import (
	"chainmod/leaf"
	"chainmod/simnet"
)

// Save transitively retains env through leaf.Keep.
func Save(env *simnet.RoundEnv) { leaf.Keep(env) }

// Tally stays pure through the effect-free chain.
func Tally(in simnet.Inbox) int { return leaf.Size(in) }
