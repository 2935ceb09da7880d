// Package proto is the top of the fixture chain: two fact hops away
// from the sends in leaf.
package proto

import (
	"helper"
	"simnet"
)

type node struct{ seen int }

// Step relays and acks two packages away (helper -> leaf).
func (n *node) Step(env *simnet.RoundEnv) { // want `summary: bcast\(O\(n\)\)\+uni\(O\(n\)\)$`
	helper.Relay(env)
	helper.AckAll(env)
}

// Echo relays once per delivered message: an n-loop around an O(n)
// helper composes to O(n^2).
func (n *node) Echo(env *simnet.RoundEnv) { // want `summary: bcast\(O\(n\^2\)\)$`
	for range env.Inbox.All() {
		helper.Relay(env)
	}
}

// Peek reads through the send-free chain: stays pure.
func (n *node) Peek(env *simnet.RoundEnv) { n.seen += helper.Len(env) }
