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
// The message events cost the engine one event per stored message, so a
// Suite asks for them only when one of its oracles reads them
// (Suite.ReadsMessages); of the stock oracles only NewNoForgedSender
// does. Every other oracle sees the engine events alone, unless it
// shares a suite with one that reads messages.
// Catching a violation *online*, in the
// round it first becomes observable, is what makes the chaos campaign's
// failure shrinking (internal/chaos) possible: the shrinker re-runs a
// candidate configuration and asks only "does the same oracle still fire?".
//
// Oracles must be deterministic: given the same run they must report the
// same violation in the same round with the same detail string. All
// constructors here preserve that property (claims are compared in probe
// order, never in map-iteration order), which
// TestSuiteViolationIsDeterministic and the chaos campaign's
// byte-identical reports across job counts check at run time.
//
// Cost: a claim is a small typed value (Key, Value), pushed by its Prober
// and compared as such. Every round re-reads and compares every claim of
// every correct node — nothing is remembered as already checked — and
// while the nodes agree that allocates nothing; keys, values and id sets
// become text only in the Detail of a Violation.
package oracle

import (
	"fmt"
	"math"

	"uba/internal/core/ordering"
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
// completed round with the round's record: its engine events, then —
// only if some oracle of the suite reads them — its message events,
// which carry the canonical wire encoding in Enc. An oracle that must
// see the message events says so through an unexported marker, which
// only this package's oracles can carry (NewNoForgedSender, and
// NewDegraded around one). The events slice is reused by the engine and
// must not be retained. A non-nil return stops further Observe calls to
// this oracle.
type Oracle interface {
	// Name identifies the monitor in violations and repro files.
	Name() string
	// Observe checks one round; nil means no violation yet.
	Observe(round int, events []trace.Event) *Violation
}

// messageReader is the marker of an oracle that reads the record's
// message events. An oracle without it must not depend on them.
type messageReader interface {
	readsMessages() bool
}

// readsMessages reports whether o reads the record's message events.
func readsMessages(o Oracle) bool {
	m, ok := o.(messageReader)
	return ok && m.readsMessages()
}

// Claim is one node's statement about its protocol state, pushed by a
// Prober. Claims with the same Key are compared across nodes: the
// agreement monitor requires their Values to be equal. A Claim is a
// small comparable value — no strings: Key and Value render themselves
// only into the Detail of a Violation.
type Claim struct {
	// Node is the claiming node.
	Node ids.ID
	// Key names the decided quantity.
	Key Key
	// Value is the node's answer.
	Value Value
}

// KeyKind says which quantity a Key names.
type KeyKind uint8

// The quantities the stock probers claim.
const (
	// KeyDecision is a one-shot protocol's output ("decision").
	KeyDecision KeyKind = iota
	// KeyOpinion is the opinion accepted from coordinator B in round A
	// ("opinion:r<A>:<B>").
	KeyOpinion
	// KeyChain is position A of an ordering chain ("chain:<A>").
	KeyChain
	// KeyFinalSet is renaming's agreed id set ("final-set").
	KeyFinalSet
)

// Key names the quantity a Claim is about: a kind plus up to two
// integers whose meaning the kind fixes.
type Key struct {
	Kind KeyKind
	A, B uint64
}

// String renders the key the way Violation details quote it.
func (k Key) String() string {
	switch k.Kind {
	case KeyOpinion:
		return fmt.Sprintf("opinion:r%d:%d", k.A, k.B)
	case KeyChain:
		return fmt.Sprintf("chain:%d", k.A)
	case KeyFinalSet:
		return "final-set"
	default:
		return "decision"
	}
}

// Value is a Claim's answer: an opinion, a chain entry, or an id set.
// Floats are held as their IEEE bits, so two nodes that both hold the
// same NaN agree, and two different NaN payloads (or +0 and -0) do not.
// The zero Value is the ⊥ opinion.
type Value struct {
	kind valueKind
	// bits is the float of an opinion or a chain entry.
	bits uint64
	// round and submitter are a chain entry's.
	round     uint64
	submitter ids.ID
	// set is an id set the claiming node still owns: read, never kept
	// past the round, never modified.
	set *ids.Set
}

type valueKind uint8

const (
	valueBot valueKind = iota
	valueOpinion
	valueEntry
	valueSet
)

// OpinionValue is the Value of an opinion.
func OpinionValue(v wire.Value) Value {
	if v.IsBot {
		return Value{}
	}
	return Value{kind: valueOpinion, bits: math.Float64bits(v.X)}
}

// EntryValue is the Value of one ordering chain entry.
func EntryValue(e ordering.ChainEntry) Value {
	return Value{kind: valueEntry, bits: math.Float64bits(e.Value), round: e.Round, submitter: e.Submitter}
}

// SetValue is the Value of an id set. The set is borrowed, not copied.
func SetValue(s *ids.Set) Value { return Value{kind: valueSet, set: s} }

// Equal reports whether two nodes gave the same answer.
func (v Value) Equal(w Value) bool {
	if v.kind == valueSet && w.kind == valueSet {
		return v.set.Equal(w.set)
	}
	return v == w
}

// String renders the value the way Violation details quote it.
func (v Value) String() string {
	switch v.kind {
	case valueSet:
		return setString(v.set)
	case valueEntry:
		return ordering.ChainEntry{Round: v.round, Submitter: v.submitter, Value: math.Float64frombits(v.bits)}.String()
	case valueOpinion:
		return ValueString(wire.V(math.Float64frombits(v.bits)))
	default:
		return ValueString(wire.Bot())
	}
}

// Prober pushes the current claims of protocol node state into emit, in
// deterministic order, and stops when emit returns false. Probers run at
// round boundaries on the driving goroutine, so they may touch node
// state freely; they re-read all of it every round (a node that rewrote
// an earlier answer must be caught in the round it did) and allocate
// nothing doing so.
type Prober func(emit func(Claim) bool)

// ValueString renders an opinion for Violation details: exact
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
	// first holds the round's first claim per key. It is looked up and
	// cleared, never ranged, and kept across rounds so that a round in
	// which the nodes agree allocates nothing.
	first map[Key]Claim
	// compare is the method value handed to probe, bound once; round
	// and fired are the Observe call it is running in.
	compare func(Claim) bool
	round   int
	fired   *Violation
}

// NewAgreement returns a monitor of keyed agreement: for every Key, all
// nodes that claim it must claim the same Value. Nodes that have not yet
// decided simply emit no claim for the key, so the monitor is safe to run
// every round of an ongoing protocol.
func NewAgreement(name string, probe Prober) Oracle {
	a := &agreement{name: name, probe: probe, first: make(map[Key]Claim)}
	a.compare = a.compareClaim
	return a
}

// Name implements Oracle.
func (a *agreement) Name() string { return a.name }

// compareClaim checks one claim against the round's first for its key.
func (a *agreement) compareClaim(c Claim) bool {
	prev, ok := a.first[c.Key]
	if !ok {
		a.first[c.Key] = c
		return true
	}
	if prev.Value.Equal(c.Value) {
		return true
	}
	a.fired = &Violation{
		Oracle: a.name,
		Round:  a.round,
		Detail: fmt.Sprintf("nodes %d and %d disagree on %q: %q vs %q",
			prev.Node, c.Node, c.Key, prev.Value, c.Value),
	}
	return false
}

// Observe implements Oracle.
func (a *agreement) Observe(round int, _ []trace.Event) *Violation {
	clear(a.first)
	a.round, a.fired = round, nil
	a.probe(a.compare)
	return a.fired
}

// validity fires when a claim fails a predicate.
type validity struct {
	name  string
	probe Prober
	valid func(Claim) bool
	// check is the method value handed to probe, bound once; round and
	// fired are the Observe call it is running in.
	check func(Claim) bool
	round int
	fired *Violation
}

// NewValidity returns a monitor that checks every claim against a
// predicate — e.g. "every decided value was some node's input".
func NewValidity(name string, probe Prober, valid func(Claim) bool) Oracle {
	v := &validity{name: name, probe: probe, valid: valid}
	v.check = v.checkClaim
	return v
}

// Name implements Oracle.
func (v *validity) Name() string { return v.name }

// checkClaim applies the predicate to one claim.
func (v *validity) checkClaim(c Claim) bool {
	if v.valid(c) {
		return true
	}
	v.fired = &Violation{
		Oracle: v.name,
		Round:  v.round,
		Detail: fmt.Sprintf("node %d claims invalid %q = %q", c.Node, c.Key, c.Value),
	}
	return false
}

// Observe implements Oracle.
func (v *validity) Observe(round int, _ []trace.Event) *Violation {
	v.round, v.fired = round, nil
	v.probe(v.check)
	return v.fired
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
// band, renaming's name uniqueness, ...). The function reads no message
// event: it gets them only when another oracle of its suite reads them.
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
	// Body is m of the accepted (m, s); it may alias node state and is
	// only read.
	Body []byte
}

// AcceptanceProber pushes every current acceptance into emit, in
// deterministic order, and stops when emit returns false; like a
// Prober, it re-reads node state every round and copies none of it.
type AcceptanceProber func(emit func(RBAcceptance) bool)

// rbPair is a (source, body) pair of reliable broadcast.
type rbPair struct {
	source ids.ID
	body   string
}

// noForgedSender tracks genuine reliable broadcasts from the wire and
// fires when a node accepts a (m, s) pair that a correct s never sent.
type noForgedSender struct {
	name     string
	correct  *ids.Set
	accepted AcceptanceProber
	// genuine holds (source, body) pairs actually broadcast by their
	// claimed source (message events where the engine-stamped sender
	// equals the payload's Source field).
	genuine map[rbPair]struct{}
	// check is the method value handed to accepted, bound once; round
	// and fired are the Observe call it is running in.
	check func(RBAcceptance) bool
	round int
	fired *Violation
}

// NewNoForgedSender returns the unforgeability monitor for reliable
// broadcast: no node may accept (m, s) for a *correct* source s unless s
// really broadcast m. Genuine broadcasts are learned from the message
// events (the engine stamps true senders, so an rbmessage whose stamped
// sender equals its claimed source is genuine; From, Kind and Enc are
// all it reads, never To); acceptances are probed from node state. It
// also flags a correct node transmitting an rbmessage with a foreign
// source — something no correct implementation does. It is the stock
// oracle that reads message events, so a suite holding it has the
// engine build them.
func NewNoForgedSender(name string, correct *ids.Set, accepted AcceptanceProber) Oracle {
	o := &noForgedSender{
		name:     name,
		correct:  correct,
		accepted: accepted,
		genuine:  make(map[rbPair]struct{}),
	}
	o.check = o.checkAcceptance
	return o
}

// Name implements Oracle.
func (o *noForgedSender) Name() string { return o.name }

// readsMessages marks the oracle as a reader of message events.
func (o *noForgedSender) readsMessages() bool { return true }

// checkAcceptance looks one acceptance up among the genuine pairs.
func (o *noForgedSender) checkAcceptance(acc RBAcceptance) bool {
	if !o.correct.Contains(acc.Source) {
		return true // Byzantine sources may "send" anything
	}
	if _, ok := o.genuine[rbPair{source: acc.Source, body: string(acc.Body)}]; ok {
		return true
	}
	o.fired = &Violation{
		Oracle: o.name,
		Round:  o.round,
		Detail: fmt.Sprintf("node %d accepted forged (%q, %d): correct source never sent it",
			acc.Node, acc.Body, acc.Source),
	}
	return false
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
			o.genuine[rbPair{source: m.Source, body: string(m.Body)}] = struct{}{}
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
	o.round, o.fired = round, nil
	o.accepted(o.check)
	return o.fired
}

// Suite runs a set of oracles over a simulation, one Observe sweep per
// round. It implements simnet.RoundObserver, so it attaches directly as
// Config.Observer, and simnet.MessageReader, so the engine builds the
// message events only for a suite that has a reader of them. Each oracle
// reports at most one violation (its first); the suite keeps observing
// the remaining oracles after one fires.
type Suite struct {
	oracles    []Oracle
	stats      []statsOracle // the StatsOracles among oracles, sorted out once
	messages   bool          // some oracle reads message events
	fired      []bool
	violations []Violation
}

// statsOracle is a StatsOracle of a suite and its index in oracles.
type statsOracle struct {
	i int
	o StatsOracle
}

var (
	_ simnet.RoundObserver = (*Suite)(nil)
	_ simnet.MessageReader = (*Suite)(nil)
)

// NewSuite builds a suite over the given oracles.
func NewSuite(oracles ...Oracle) *Suite {
	s := &Suite{oracles: oracles, fired: make([]bool, len(oracles))}
	s.classify()
	return s
}

// Add appends another oracle to the suite.
func (s *Suite) Add(o Oracle) {
	s.oracles = append(s.oracles, o)
	s.fired = append(s.fired, false)
	s.classify()
}

// classify notes which oracles are StatsOracles and whether any reads
// message events, so a round asserts nothing.
func (s *Suite) classify() {
	s.stats = s.stats[:0]
	s.messages = false
	for i, o := range s.oracles {
		if so, ok := o.(StatsOracle); ok {
			s.stats = append(s.stats, statsOracle{i, so})
		}
		s.messages = s.messages || readsMessages(o)
	}
}

// ReadsMessages implements simnet.MessageReader: it reports whether one
// of the suite's oracles reads message events. The engine asks every
// round, so an oracle added or wrapped later is heard from the next
// round on.
func (s *Suite) ReadsMessages() bool { return s.messages }

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
	for _, so := range s.stats {
		if s.fired[so.i] {
			continue
		}
		if v := so.o.ObserveStats(round, acct); v != nil {
			s.fired[so.i] = true
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
