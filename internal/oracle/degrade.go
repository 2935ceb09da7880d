package oracle

import (
	"uba/internal/trace"
)

// This file is the graceful-degradation layer for fault-plan runs
// (simnet.FaultPlan): liveness monitors cannot distinguish "the
// protocol is stuck" from "the network was partitioned", so a chaos
// campaign that injects partitions or link loss would drown in false
// terminations. NewDegraded suspends a wrapped monitor while the
// network is disrupted and warps its round clock by the time lost, so
// a round bound measures rounds of *usable* network, not wall rounds.
//
// Safety monitors (agreement, validity of decided values, no-forged-
// sender) stay unconditional: a partition never excuses disagreement.
// Only liveness- and progress-flavored oracles should be wrapped —
// chaos wraps by name (see internal/chaos).

// degraded suspends an inner oracle while the network is disrupted.
type degraded struct {
	inner    Oracle
	recovery int
	// partition reports a live partition (between a partition event and
	// the next heal).
	partition bool
	// lastDisrupt is the most recent round with a disruption event
	// (partition, heal, or any link-drop activity); 0 = never.
	lastDisrupt int
	// suspended counts rounds skipped so far; the inner oracle's round
	// clock runs `suspended` rounds behind the simulation's.
	suspended int
}

// NewDegraded wraps a liveness oracle for graceful degradation under an
// adversarial network: while a partition is live, and for `recovery`
// rounds after the last disruption (a partition, a heal, or link-level
// drop activity), the inner oracle is not
// consulted at all and the round is not charged to it. When the
// network has been quiet for `recovery` rounds, the inner oracle
// resumes with a warped round clock — Observe(round - suspendedRounds)
// — so e.g. a termination bound of B means "B rounds of undisrupted
// network", not B wall rounds. A violation the inner oracle reports is
// re-stamped with the real simulation round.
func NewDegraded(inner Oracle, recovery int) Oracle {
	if recovery < 0 {
		recovery = 0
	}
	return &degraded{inner: inner, recovery: recovery}
}

// Name implements Oracle.
func (d *degraded) Name() string { return d.inner.Name() }

// readsMessages forwards the inner oracle's answer.
func (d *degraded) readsMessages() bool { return readsMessages(d.inner) }

// disrupted reports whether the given round's events mark the network
// as disrupted, updating the partition state.
func (d *degraded) disrupted(round int, events []trace.Event) bool {
	for i := range events {
		switch events[i].Kind {
		case trace.KindPartition:
			d.partition = true
			d.lastDisrupt = round
		case trace.KindHeal:
			d.partition = false
			d.lastDisrupt = round
		case trace.KindLinkDrop:
			// Both rule activations and per-link drop events land
			// here: a live loss rule disrupts even on rounds where no
			// specific message happened to be hit.
			d.lastDisrupt = round
		}
	}
	return d.partition || (d.lastDisrupt > 0 && round-d.lastDisrupt < d.recovery)
}

// Observe implements Oracle.
func (d *degraded) Observe(round int, events []trace.Event) *Violation {
	if d.disrupted(round, events) {
		d.suspended++
		return nil
	}
	v := d.inner.Observe(round-d.suspended, events)
	if v != nil {
		// The inner oracle saw the warped clock; the report should
		// carry the real simulation round.
		v.Round = round
	}
	return v
}

// Wrap applies f to every oracle in the suite, replacing each with the
// non-nil results — the hook chaos uses to wrap liveness oracles in
// NewDegraded by name. Returning nil keeps the original oracle.
func (s *Suite) Wrap(f func(Oracle) Oracle) {
	for i, o := range s.oracles {
		if w := f(o); w != nil {
			s.oracles[i] = w
		}
	}
	s.classify()
}
