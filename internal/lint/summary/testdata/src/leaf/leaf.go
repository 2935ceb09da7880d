// Package leaf is the bottom of the fixture chain: its sends are
// directly visible in its bodies, and the exported facts must carry
// them up through helper into proto.
package leaf

import "simnet"

// Fanout broadcasts once per delivered message: O(n).
func Fanout(env *simnet.RoundEnv) { // want `summary: bcast\(O\(n\)\)$`
	for range env.Inbox.All() {
		env.Broadcast("echo")
	}
}

// Ack unicasts once: O(1).
func Ack(env *simnet.RoundEnv, to int) { // want `summary: uni\(O\(1\)\)$`
	env.Send(to, "ack")
}

// Count only reads; its summary is the zero value and is not exported.
func Count(env *simnet.RoundEnv) int { return env.Inbox.Len() }
