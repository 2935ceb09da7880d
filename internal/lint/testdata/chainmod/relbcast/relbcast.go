// Package relbcast is named after a registry family whose Node is
// registered O(n) broadcasts. Its Step looks send-free
// intraprocedurally; its class is two package hops away, visible only
// through summary facts, and matches the contract exactly.
package relbcast

import (
	"chainmod/helper"
	"chainmod/simnet"
)

// Node is a protocol process.
type Node struct{}

// Step relays through helper: O(n) broadcasts, as registered.
func (n *Node) Step(env *simnet.RoundEnv) { helper.Relay(env) }
