// Package sends pins the send-class facts (Broadcasts, Unicasts,
// ParamCalls): direct sites, loop amplification, helper-laundered sends
// through invoked function parameters, and the conservative dynamic
// edges.
package sends

import "simnet"

// One broadcast per call: O(1).
func One(env *simnet.RoundEnv) { // want `summary: bcast\(O\(1\)\)`
	env.Broadcast("x")
}

// A constant-bounded loop does not amplify the class.
func Three(env *simnet.RoundEnv) { // want `summary: bcast\(O\(1\)\)`
	for i := 0; i < 3; i++ {
		env.Broadcast("x")
	}
}

// A unicast per inbox message: the trip count is not provably
// constant, so the loop is an n-loop and the class is O(n).
func Reply(env *simnet.RoundEnv) { // want `summary: uni\(O\(n\)\)`
	for _, m := range env.Inbox.All() {
		env.Send(m.From, "ack")
	}
}

// fanout invokes its emit parameter once per count: the parameter
// slot's invocation class is O(n) (slot 1; slot 0 is the non-tracked
// int).
func fanout(n int, emit func(string)) { // want `summary: calls\(1:O\(n\)\)`
	for i := 0; i < n; i++ {
		emit("x")
	}
}

// Passing env.Broadcast into an O(n)-invoking slot launders O(n)
// broadcasts through the helper.
func Laundered(env *simnet.RoundEnv) { // want `summary: bcast\(O\(n\)\)`
	fanout(env.Inbox.Len(), env.Broadcast)
}

// An n-loop around the laundering helper composes to O(n^2).
func Nested(env *simnet.RoundEnv) { // want `summary: bcast\(O\(n\^2\)\)`
	for range env.Inbox.All() {
		fanout(env.Inbox.Len(), env.Broadcast)
	}
}

// A literal passed into an invoking slot is walked at that slot's
// class: the captured env's broadcast lands at O(n).
func Wrapped(env *simnet.RoundEnv) { // want `summary: bcast\(O\(n\)\)`
	fanout(3, func(p string) { env.Broadcast(p) })
}

// Forwarding our own emit parameter into an invoking slot threads the
// class through ParamCalls instead of resolving it here.
func Relay(env *simnet.RoundEnv, emit func(string)) { // want `summary: calls\(1:O\(n\)\)`
	fanout(env.Inbox.Len(), emit)
}

// A call through a local function value bound to the env parameter
// could be either bound send method: both counters take the
// conservative class.
func Dynamic(env *simnet.RoundEnv) { // want `summary: bcast\(O\(1\)\)\+uni\(O\(1\)\)`
	f := env.Broadcast
	f("x")
}
