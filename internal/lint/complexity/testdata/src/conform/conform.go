// Package conform holds contracts the certifier accepts: each
// registered class matches the derived class exactly.
package conform

import "simnet"

// Quiet broadcasts once per round: O(1).
type Quiet struct{}

func (q *Quiet) Step(env *simnet.RoundEnv) {
	env.Broadcast("x")
}

// Echo re-broadcasts every inbox message: O(n) broadcasts.
type Echo struct{}

func (e *Echo) Step(env *simnet.RoundEnv) {
	for _, m := range env.Inbox.All() {
		env.Broadcast(m.Payload)
	}
}

// Acker unicasts an ack per message; the single broadcast stays O(1).
type Acker struct{}

func (a *Acker) Step(env *simnet.RoundEnv) {
	env.Broadcast("present")
	for _, m := range env.Inbox.All() {
		env.Send(m.From, "ack")
	}
}

// fanout launders sends through an invoked parameter (the
// helper-mediated shape the summary ParamCalls fact exists for).
func fanout(n int, emit func(string)) {
	for i := 0; i < n; i++ {
		emit("x")
	}
}

// Laundry's sends all flow through the helper: still O(n).
type Laundry struct{}

func (l *Laundry) Step(env *simnet.RoundEnv) {
	fanout(env.Inbox.Len(), env.Broadcast)
}

// Dispatcher runs a laundering helper inside an n-loop: O(n^2).
type Dispatcher struct{}

func (d *Dispatcher) Step(env *simnet.RoundEnv) {
	for range env.Inbox.All() {
		fanout(env.Inbox.Len(), env.Broadcast)
	}
}

// Silent never sends; the zero contract certifies that too.
type Silent struct {
	seen int
}

func (s *Silent) Step(env *simnet.RoundEnv) {
	s.seen += env.Inbox.Len()
}
