// Conforming Step implementations: the sanctioned ways of using a
// RoundEnv, none of which may be flagged.
package retain

import "simnet"

type conforming struct {
	lastRound int
	copied    []simnet.Received
	bytes     int
	bodies    []any
	senders   []int
	heard     int
}

func (g *conforming) Step(env *simnet.RoundEnv) {
	g.lastRound = env.Round // plain value copy
	for m := range env.Inbox.All() {
		g.copied = append(g.copied, m) // Received values copy out safely
		g.bytes += m.Size()
	}
	if env.Inbox.Len() > 0 {
		msg := env.Inbox.At(0) // At is //lint:valuecopy: a by-value element copy
		g.copied = append(g.copied, msg)
	}
	g.copied = append(g.copied, env.Inbox.Slice()...) // Slice allocates fresh copies
	// The payload-major views may be read freely, and what is copied out
	// of them by value — a payload, a sender id, a Received — may be kept.
	for _, s := range env.Inbox.Said() {
		g.bodies = append(g.bodies, s.Body)
		g.heard += len(s.By)
	}
	g.senders = append(g.senders, env.Inbox.Broadcasters()...)
	for _, m := range env.Inbox.Direct() {
		g.copied = append(g.copied, m)
	}
	if d := env.Inbox.Direct(); len(d) > 0 {
		g.copied = append(g.copied, d[0])
	}
	env.Broadcast("state") // self-append inside Broadcast: the self-store exemption
	env.Send(1, "hi")
	inspect(env) // non-retaining helper: its summary fact proves env does not escape
}

func inspect(env *simnet.RoundEnv) {}

// interprocClean uses helpers that read or launder without escaping:
// their summaries are clean (or the laundered alias stays local), so
// nothing is flagged.
type interprocClean struct{ total int }

func (g *interprocClean) Step(env *simnet.RoundEnv) {
	g.total += tally(env.Inbox)
	e := launder(env) // laundered alias stays local: fine until it escapes
	g.total += e.Round
}

func tally(in simnet.Inbox) int {
	n := 0
	for m := range in.All() {
		n += m.Size()
	}
	return n
}

// suppressed demonstrates //lint:allow: the store below is deliberate
// test instrumentation and must NOT be reported.
type suppressed struct{ stash simnet.Inbox }

func (s *suppressed) Step(env *simnet.RoundEnv) {
	//lint:allow retainenv instrumentation reads the inbox before the next round recycles it
	s.stash = env.Inbox
}

// notStep has the wrong signature shape: the pass must ignore it.
type notStep struct{ saved *simnet.RoundEnv }

func (n *notStep) Keep(env *simnet.RoundEnv) { n.saved = env }

// echoKeeper keeps a counted echo list across Steps, the way the rotor
// core holds one round's echoes until its next fold: the list pins the
// view it names (Counted.Echoes is //lint:valuecopy), so keeping it is
// allowed, and so is reading it in a later Step.
type echoKeeper struct {
	kept  simnet.EchoList
	total int
}

func (k *echoKeeper) Step(env *simnet.RoundEnv) {
	for _, e := range k.kept.All() {
		k.total += e.Count
	}
	k.kept.Release()
	view := env.Inbox.Counted(nil)
	for _, g := range view.Said() {
		k.total += len(g.By) // read within the Step
	}
	k.kept = view.Echoes(0)
}
