// Package approx is named after a registry family whose Node and
// Iterated are registered O(1) broadcasts. Node reaches the same O(n)
// helper chain as relbcast and must be reported as exceeding its
// contract; Iterated broadcasts once and certifies cleanly.
package approx

import (
	"chainmod/helper"
	"chainmod/simnet"
)

// Node exceeds its O(1) contract two package hops away.
type Node struct{}

// Step relays through helper: O(n) broadcasts.
func (n *Node) Step(env *simnet.RoundEnv) { helper.Relay(env) }

// Iterated keeps to its contract.
type Iterated struct{}

// Step broadcasts once.
func (it *Iterated) Step(env *simnet.RoundEnv) { env.Broadcast("input") }
