// Package violate holds the planted contract violations: each want
// pins one failure mode of the certifier. The test's table also names
// a Missing type, which this package does not declare.
package violate // want `complexity registry names violate\.Missing, which package violate does not declare`

import "simnet"

// launder is the helper-mediated send channel: without the ParamCalls
// fact these sends would be invisible to the caller's class.
func launder(n int, emit func(string)) {
	for i := 0; i < n; i++ {
		emit("x")
	}
}

// Sneaky is registered O(1) but launders O(n) broadcasts through the
// helper.
type Sneaky struct{} // want `Sneaky\.Step exceeds its registered complexity: broadcasts derived O\(n\), registered O\(1\)`

func (s *Sneaky) Step(env *simnet.RoundEnv) {
	launder(env.Inbox.Len(), env.Broadcast)
}

// Misnested is registered O(n) but the outer inbox loop squares it —
// the loop-nesting misclassification a hand count misses.
type Misnested struct{} // want `Misnested\.Step exceeds its registered complexity: broadcasts derived O\(n\^2\), registered O\(n\)`

func (m *Misnested) Step(env *simnet.RoundEnv) {
	for range env.Inbox.All() {
		for _, r := range env.Inbox.All() {
			env.Broadcast(r.Payload)
		}
	}
}

// Hidden is registered with zero unicasts but acks every message.
type Hidden struct{} // want `Hidden\.Step exceeds its registered complexity: unicasts derived O\(n\), registered 0`

func (h *Hidden) Step(env *simnet.RoundEnv) {
	env.Broadcast("present")
	for _, m := range env.Inbox.All() {
		env.Send(m.From, "ack")
	}
}

// Loose is registered O(n) for a Step that only ever broadcasts once:
// the overstated contract would weaken the runtime oracle's bound.
type Loose struct{} // want `registered complexity of Loose is looser than its Step: broadcasts registered O\(n\), derived O\(1\)`

func (l *Loose) Step(env *simnet.RoundEnv) {
	env.Broadcast("x")
}

// Stepless has a contract but nothing to certify it against.
type Stepless struct{} // want `Stepless has a registered complexity contract but no Step\(env \*simnet\.RoundEnv\) method`

// Allowed exceeds its registered class but carries a suppression,
// which is honored (and must itself be used, or Done reports it).
//
//lint:allow complexity fixture: intentional mismatch kept to pin the suppression path
type Allowed struct{}

func (a *Allowed) Step(env *simnet.RoundEnv) {
	for _, m := range env.Inbox.All() {
		env.Broadcast(m.Payload)
	}
}
