// Package helper is the pass-through layer: it sends nothing itself,
// so every fact in its summaries was imported from leaf's .vetx file.
// A second hop (relbcast, approx) then proves transitive propagation.
package helper

import (
	"chainmod/leaf"
	"chainmod/simnet"
)

// Relay broadcasts O(n) times through leaf.Fanout.
func Relay(env *simnet.RoundEnv) { leaf.Fanout(env) }
