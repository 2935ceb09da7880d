// Package helper sits between proto and leaf: it sends nothing itself
// — everything in its summaries is inherited from leaf's facts across
// the package boundary.
package helper

import (
	"leaf"
	"simnet"
)

// Relay broadcasts O(n) times through leaf.Fanout.
func Relay(env *simnet.RoundEnv) { // want `summary: bcast\(O\(n\)\)$`
	leaf.Fanout(env)
}

// AckAll acks every delivered message through leaf.Ack: O(n) unicasts.
func AckAll(env *simnet.RoundEnv) { // want `summary: uni\(O\(n\)\)$`
	for _, m := range env.Inbox.All() {
		leaf.Ack(env, m.From)
	}
}

// Len calls only the send-free leaf.Count: stays pure.
func Len(env *simnet.RoundEnv) int { return leaf.Count(env) }
