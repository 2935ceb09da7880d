// Package oracle provides online safety monitors for simulator runs: small
// observers that watch a run round by round and report the first round in
// which a protocol-level safety or liveness property is violated.
//
// An Oracle is fed each round's record (via a Suite attached as the
// network's simnet.RoundObserver) and may additionally probe protocol node
// state through Prober callbacks supplied by the per-family constructors
// (ForConsensus, ForBroadcast, ...). The record is the round's engine
// events (fault plan, containment, link faults) followed by one message
// event per message the round stored — not per delivery: a broadcast
// appears once with To == 0, standing for every receiver live that
// round, and a unicast (or, on a link-fault round, one link's copy of a
// broadcast, with the encoding that link delivered) once with its
// receiver. So the record answers "who sent what"; anything per-receiver
// — who accepted, decided, holds which chain — comes from Probers, as in
// every stock oracle; the per-delivery transcript is the EventLog's.
// Catching a violation *online*, in the
// round it first becomes observable, is what makes the chaos campaign's
// failure shrinking (internal/chaos) possible: the shrinker re-runs a
// candidate configuration and asks only "does the same oracle still fire?".
//
// Oracles must be deterministic: given the same run they must report the
// same violation in the same round with the same detail string. All
// constructors here preserve that property (claims are compared in probe
// order, never in map-iteration order), which the determinism lint pass
// machine-checks (`make lint`).
package oracle

import (
	"fmt"
	"math"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// Violation is one observed safety failure. It is serialized into chaos
// repro files, so the Detail string must be deterministic across runs.
type Violation struct {
	// Oracle is the name of the monitor that fired.
	Oracle string `json:"oracle"`
	// Round is the simulation round the violation became observable in.
	Round int `json:"round"`
	// Detail describes the failure (nodes and values involved).
	Detail string `json:"detail"`
}

// Oracle is one online safety monitor. Observe is called once per
// completed round with the round's record (message events carry the
// canonical wire encoding in Enc; engine events precede them). The
// events slice is reused by the engine and must not be retained.
// A non-nil return stops further Observe calls to this oracle.
type Oracle interface {
	// Name identifies the monitor in violations and repro files.
	Name() string
	// Observe checks one round; nil means no violation yet.
	Observe(round int, events []trace.Event) *Violation
}

// Claim is one node's statement about its protocol state, produced by a
// Prober. Claims with the same Key are compared across nodes: the
// agreement monitor requires their Values to be equal.
type Claim struct {
	// Node is the claiming node.
	Node ids.ID
	// Key names the decided quantity (e.g. "decision", "chain:3").
	Key string
	// Value is a canonical string encoding of the node's answer.
	Value string
}

// Prober extracts the current claims from protocol node state. Probers
// run at round boundaries on the driving goroutine, so they may touch
// node state freely; they must emit claims in deterministic order.
type Prober func() []Claim

// ValueString canonically encodes an opinion for Claim values: exact
// (bit-level, so Byzantine NaN payloads stay distinguishable) and
// deterministic.
func ValueString(v wire.Value) string {
	if v.IsBot {
		return "⊥"
	}
	return fmt.Sprintf("%g(%x)", v.X, math.Float64bits(v.X))
}

// agreement fires when two claims for the same key carry different values.
type agreement struct {
	name  string
	probe Prober
}

// NewAgreement returns a monitor of keyed agreement: for every Key, all
// nodes that claim it must claim the same Value. Nodes that have not yet
// decided simply emit no claim for the key, so the monitor is safe to run
// every round of an ongoing protocol.
func NewAgreement(name string, probe Prober) Oracle {
	return &agreement{name: name, probe: probe}
}

// Name implements Oracle.
func (a *agreement) Name() string { return a.name }

// Observe implements Oracle.
func (a *agreement) Observe(round int, _ []trace.Event) *Violation {
	claims := a.probe()
	first := make(map[string]Claim, len(claims))
	for _, c := range claims {
		prev, ok := first[c.Key]
		if !ok {
			first[c.Key] = c
			continue
		}
		if prev.Value != c.Value {
			return &Violation{
				Oracle: a.name,
				Round:  round,
				Detail: fmt.Sprintf("nodes %d and %d disagree on %q: %q vs %q",
					prev.Node, c.Node, c.Key, prev.Value, c.Value),
			}
		}
	}
	return nil
}

// validity fires when a claim fails a predicate.
type validity struct {
	name  string
	probe Prober
	valid func(Claim) bool
}

// NewValidity returns a monitor that checks every claim against a
// predicate — e.g. "every decided value was some node's input".
func NewValidity(name string, probe Prober, valid func(Claim) bool) Oracle {
	return &validity{name: name, probe: probe, valid: valid}
}

// Name implements Oracle.
func (v *validity) Name() string { return v.name }

// Observe implements Oracle.
func (v *validity) Observe(round int, _ []trace.Event) *Violation {
	for _, c := range v.probe() {
		if !v.valid(c) {
			return &Violation{
				Oracle: v.name,
				Round:  round,
				Detail: fmt.Sprintf("node %d claims invalid %q = %q", c.Node, c.Key, c.Value),
			}
		}
	}
	return nil
}

// terminationBound fires when nodes are still pending past a round bound.
type terminationBound struct {
	name    string
	bound   int
	pending func() []ids.ID
}

// NewTerminationBound returns a liveness monitor: by round `bound` the
// pending set must be empty. Crashed or removed nodes should be excluded
// by the caller's pending function.
func NewTerminationBound(name string, bound int, pending func() []ids.ID) Oracle {
	return &terminationBound{name: name, bound: bound, pending: pending}
}

// Name implements Oracle.
func (t *terminationBound) Name() string { return t.name }

// Observe implements Oracle.
func (t *terminationBound) Observe(round int, _ []trace.Event) *Violation {
	if round < t.bound {
		return nil
	}
	if p := t.pending(); len(p) > 0 {
		return &Violation{
			Oracle: t.name,
			Round:  round,
			Detail: fmt.Sprintf("%d nodes undecided at round bound %d (first: %d)",
				len(p), t.bound, p[0]),
		}
	}
	return nil
}

// funcOracle adapts a bare function to the Oracle interface.
type funcOracle struct {
	name string
	fn   func(round int, events []trace.Event) *Violation
}

// NewFunc wraps a function as an Oracle, for family-specific checks that
// do not fit the keyed-claim monitors (approximate agreement's epsilon
// band, renaming's name uniqueness, ...).
func NewFunc(name string, fn func(round int, events []trace.Event) *Violation) Oracle {
	return &funcOracle{name: name, fn: fn}
}

// Name implements Oracle.
func (f *funcOracle) Name() string { return f.name }

// Observe implements Oracle.
func (f *funcOracle) Observe(round int, events []trace.Event) *Violation {
	return f.fn(round, events)
}

// RBAcceptance is one reliable-broadcast acceptance probed from node
// state, checked by NewNoForgedSender.
type RBAcceptance struct {
	// Node is the accepting node.
	Node ids.ID
	// Source is s of the accepted (m, s).
	Source ids.ID
	// Body is m of the accepted (m, s).
	Body []byte
}

// noForgedSender tracks genuine reliable broadcasts from the wire and
// fires when a node accepts a (m, s) pair that a correct s never sent.
type noForgedSender struct {
	name     string
	correct  *ids.Set
	accepted func() []RBAcceptance
	// genuine holds (source, body) pairs actually broadcast by their
	// claimed source (message events where the engine-stamped sender
	// equals the payload's Source field).
	genuine map[string]struct{}
}

// NewNoForgedSender returns the unforgeability monitor for reliable
// broadcast: no node may accept (m, s) for a *correct* source s unless s
// really broadcast m. Genuine broadcasts are learned from the message
// events (the engine stamps true senders, so an rbmessage whose stamped
// sender equals its claimed source is genuine; From, Kind and Enc are
// all it reads, never To); acceptances are probed from node state. It also flags a correct node transmitting an rbmessage
// with a foreign source — something no correct implementation does.
func NewNoForgedSender(name string, correct *ids.Set, accepted func() []RBAcceptance) Oracle {
	return &noForgedSender{
		name:     name,
		correct:  correct,
		accepted: accepted,
		genuine:  make(map[string]struct{}),
	}
}

// Name implements Oracle.
func (o *noForgedSender) Name() string { return o.name }

// pairKey keys a (source, body) pair.
func pairKey(source ids.ID, body []byte) string {
	return fmt.Sprintf("%d|%x", source, body)
}

// Observe implements Oracle.
func (o *noForgedSender) Observe(round int, events []trace.Event) *Violation {
	for i := range events {
		e := &events[i]
		if e.Kind != wire.KindRBMessage.String() || e.Enc == "" {
			continue
		}
		p, err := wire.Decode([]byte(e.Enc))
		if err != nil {
			continue // engine fuzzing can deliver anything; not this oracle's concern
		}
		m, ok := p.(wire.RBMessage)
		if !ok {
			continue
		}
		if ids.ID(e.From) == m.Source {
			o.genuine[pairKey(m.Source, m.Body)] = struct{}{}
			continue
		}
		if o.correct.Contains(ids.ID(e.From)) {
			return &Violation{
				Oracle: o.name,
				Round:  round,
				Detail: fmt.Sprintf("correct node %d transmitted rbmessage claiming source %d",
					e.From, m.Source),
			}
		}
	}
	for _, acc := range o.accepted() {
		if !o.correct.Contains(acc.Source) {
			continue // Byzantine sources may "send" anything
		}
		if _, ok := o.genuine[pairKey(acc.Source, acc.Body)]; !ok {
			return &Violation{
				Oracle: o.name,
				Round:  round,
				Detail: fmt.Sprintf("node %d accepted forged (%q, %d): correct source never sent it",
					acc.Node, acc.Body, acc.Source),
			}
		}
	}
	return nil
}

// Suite runs a set of oracles over a simulation, one Observe sweep per
// round. It implements simnet.RoundObserver, so it attaches directly as
// Config.Observer. Each oracle reports at most one violation (its first);
// the suite keeps observing the remaining oracles after one fires.
type Suite struct {
	oracles    []Oracle
	fired      []bool
	violations []Violation
}

var _ simnet.RoundObserver = (*Suite)(nil)

// NewSuite builds a suite over the given oracles.
func NewSuite(oracles ...Oracle) *Suite {
	return &Suite{oracles: oracles, fired: make([]bool, len(oracles))}
}

// Add appends another oracle to the suite.
func (s *Suite) Add(o Oracle) {
	s.oracles = append(s.oracles, o)
	s.fired = append(s.fired, false)
}

// ObserveRound implements simnet.RoundObserver.
func (s *Suite) ObserveRound(round int, events []trace.Event) {
	for i, o := range s.oracles {
		if s.fired[i] {
			continue
		}
		if v := o.Observe(round, events); v != nil {
			s.fired[i] = true
			s.violations = append(s.violations, *v)
		}
	}
}

// StatsOracle is the optional extension of Oracle for monitors that
// consume the engine's per-round accounting (broadcast/unicast tallies)
// rather than trace events — the runtime complexity oracle implements
// it.
type StatsOracle interface {
	Oracle
	// ObserveStats checks one round's ledger; nil means no violation.
	ObserveStats(round int, acct simnet.RoundAccounting) *Violation
}

var _ simnet.RoundStatsObserver = (*Suite)(nil)

// ObserveRoundStats implements simnet.RoundStatsObserver: every
// not-yet-fired StatsOracle in the suite sees each successful round's
// accounting, right after the event sweep.
func (s *Suite) ObserveRoundStats(round int, acct simnet.RoundAccounting) {
	for i, o := range s.oracles {
		if s.fired[i] {
			continue
		}
		so, ok := o.(StatsOracle)
		if !ok {
			continue
		}
		if v := so.ObserveStats(round, acct); v != nil {
			s.fired[i] = true
			s.violations = append(s.violations, *v)
		}
	}
}

// Violations returns all recorded violations in firing order.
func (s *Suite) Violations() []Violation {
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	return out
}

// First returns the first violation recorded, or nil.
func (s *Suite) First() *Violation {
	if len(s.violations) == 0 {
		return nil
	}
	v := s.violations[0]
	return &v
}

// Failed reports whether any oracle has fired.
func (s *Suite) Failed() bool { return len(s.violations) > 0 }
