// Package spec is the executable specification of the paper's
// Algorithm 1 (reliable broadcast), Algorithm 2 (the rotor-coordinator),
// Algorithm 3 (consensus), Algorithm 4 (approximate agreement),
// Algorithm 5 (parallel consensus), Algorithm 6 (total ordering in a
// dynamic network) and the appendix's renaming, terminating reliable
// broadcast and interactive consistency, each
// written the way the full version (arXiv 2102.10442) states it: maps of
// distinct senders, walks of Inbox.All, sorts, n_v counted from the
// node's own set of senders, and every threshold spelled out. Family.Test
// (harness.go) runs a family of internal/core beside its spec in seeded
// whole runs and compares them send by send; NewFleet is the one runner
// the families' other tests build their networks with.
//
// The spec shares no code with what it checks: it imports the engine
// (simnet), the payloads (wire), the identifier type (ids) and, for
// NewFleet, the Byzantine nodes (adversary), but no census, no ids.Set
// and nothing of internal/core. A mutant in shared code changes both
// sides of a comparison, and the comparison cannot see it.
//
// Where the paper leaves a choice, the spec takes the one DESIGN §3
// pins: of several opinions a coordinator sent one receiver, the
// greatest encoding; of several values a sender sent, the least; of a
// tie in a tally, the least value; a node's echoes of one round go out
// in ascending key order, and its ballots of one round in ascending
// instance order; Algorithm 3 sends Algorithm 5's no-quorum markers; an
// instance of Algorithm 5 is met by the first census member in inbox
// order that names it; of several events a member sent for one round,
// Algorithm 6 takes the greatest encoding; and the rotor of an execution
// Algorithm 6 starts has S as its first candidates.
package spec

import (
	"bytes"
	"cmp"
	"maps"
	"math"
	"slices"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// heard is the set of nodes a node has received a message from: n_v is
// its size.
type heard map[ids.ID]bool

func (h heard) observe(inbox simnet.Inbox) {
	for m := range inbox.All() {
		h[m.From] = true
	}
}

// node is what every process of the spec holds: its id and whom it heard.
type node struct {
	id    ids.ID
	heard heard
}

// ID implements simnet.Process.
func (n *node) ID() ids.ID { return n.id }

// Done implements simnet.Process, for a node that never stops: Algorithm
// 1 runs "rounds 3 to ∞".
func (n *node) Done() bool { return false }

// distinct is, per key, the set of distinct nodes that named it.
type distinct[K comparable] map[K]heard

func (d distinct[K]) add(k K, from ids.ID) {
	if d[k] == nil {
		d[k] = heard{}
	}
	d[k][from] = true
}

// echoRule is Algorithm 1's loop body over the keys of d, in ascending
// order: a key not yet accepted that at least n_v/3 distinct nodes named
// is echoed, and at 2n_v/3 it is accepted.
func echoRule[K comparable](d distinct[K], nv int, order func(a, b K) int,
	accepted func(K) bool, echo, accept func(K)) {
	for _, k := range slices.SortedFunc(maps.Keys(d), order) {
		if accepted(k) {
			continue
		}
		c := len(d[k])
		if 3*c >= nv {
			echo(k)
		}
		if 3*c >= 2*nv {
			accept(k)
		}
	}
}

// echoInits is round 2 of Algorithm 2 and of renaming: echo every node
// whose init arrived.
func echoInits(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		if _, ok := m.Payload.(wire.Init); ok {
			env.Broadcast(wire.IDEcho{Candidate: m.From})
		}
	}
}

// initRound is the two initialization rounds of Algorithms 3 and 5:
// announce, then echo the announcements. The senders heard until the end
// of round 2 are the node's census, and their number n_v. It reports
// whether env's round was one of the two.
func (n *node) initRound(env *simnet.RoundEnv) bool {
	switch env.Round {
	case 1:
		env.Broadcast(wire.Init{})
	case 2:
		echoInits(env)
	default:
		return false
	}
	n.heard.observe(env.Inbox)
	return true
}

// RB is Algorithm 1, reliable broadcast, at one correct node.
type RB struct {
	node
	body     []byte       // nil at a node that is not a source
	accepted map[pair]int // (m, s) -> the round it was accepted in
}

// pair is a broadcast (m, s).
type pair struct {
	source ids.ID
	body   string
}

func comparePairs(a, b pair) int {
	return cmp.Or(cmp.Compare(a.source, b.source), cmp.Compare(a.body, b.body))
}

// Acceptance is a pair (Body, Source) a node accepted, in round Round.
type Acceptance struct {
	Source ids.ID
	Body   []byte
	Round  int
}

// NewRB returns a node that broadcasts (body, id) if body is not nil and
// relays otherwise.
func NewRB(id ids.ID, body []byte) *RB {
	return &RB{node: node{id, heard{}}, body: body, accepted: map[pair]int{}}
}

// Step implements simnet.Process.
func (n *RB) Step(env *simnet.RoundEnv) {
	n.heard.observe(env.Inbox)
	switch env.Round {
	case 1: // the source broadcasts (m, s); everyone else says present
		if n.body != nil {
			env.Broadcast(wire.RBMessage{Source: n.id, Body: n.body})
		} else {
			env.Broadcast(wire.Present{})
		}
	case 2: // echo (m, s) received from s itself
		for m := range env.Inbox.All() {
			if rb, ok := m.Payload.(wire.RBMessage); ok && m.From == rb.Source {
				env.Broadcast(wire.RBEcho{Source: rb.Source, Body: rb.Body})
			}
		}
	default: // the echo rule over this round's echoes
		echoes := distinct[pair]{}
		for m := range env.Inbox.All() {
			if e, ok := m.Payload.(wire.RBEcho); ok {
				echoes.add(pair{e.Source, string(e.Body)}, m.From)
			}
		}
		echoRule(echoes, len(n.heard), comparePairs,
			func(k pair) bool { _, done := n.accepted[k]; return done },
			func(k pair) { env.Broadcast(wire.RBEcho{Source: k.source, Body: []byte(k.body)}) },
			func(k pair) { n.accepted[k] = env.Round })
	}
}

// Outcome returns the accepted pairs by source, then body, as
// []Acceptance.
func (n *RB) Outcome() any {
	var out []Acceptance
	for _, k := range slices.SortedFunc(maps.Keys(n.accepted), comparePairs) {
		out = append(out, Acceptance{Source: k.source, Body: []byte(k.body), Round: n.accepted[k]})
	}
	return out
}

// RotorCore is one node's Algorithm 2 loop, the part consensus embeds:
// C_v by the echo rule over candidate echoes, the coordinator
// C_v[r mod |C_v|], and the opinion of last round's coordinator.
type RotorCore struct {
	instance   uint64
	cycling    bool             // keep rotating after a reselection
	candidates heard            // C_v
	selected   heard            // S_v
	echoes     distinct[ids.ID] // since the last LoopRound
	last       ids.ID           // the coordinator LoopRound last selected
	r          int
	done       bool
}

// Selection is the outcome of one loop round.
type Selection struct {
	Coordinator ids.ID
	Terminated  bool // the coordinator was selected before
}

// AcceptedOpinion is an opinion X of coordinator From, accepted in Round.
type AcceptedOpinion struct {
	Round int
	From  ids.ID
	X     wire.Value
}

// NewRotorCore returns a core whose echoes carry instance. A cycling core
// keeps selecting after a reselection instead of terminating.
func NewRotorCore(instance uint64, cycling bool) *RotorCore {
	return &RotorCore{instance: instance, cycling: cycling,
		candidates: heard{}, selected: heard{}, echoes: distinct[ids.ID]{}}
}

// Note counts, until the next LoopRound, the candidate echoes in inbox
// of the senders counted admits.
func (c *RotorCore) Note(inbox simnet.Inbox, counted func(ids.ID) bool) {
	for m := range inbox.All() {
		if e, ok := m.Payload.(wire.IDEcho); ok && e.Instance == c.instance && counted(m.From) {
			c.echoes.add(e.Candidate, m.From)
		}
	}
}

// Opinion is lines 14–15: the opinion of c's instance that the
// coordinator selected by the last LoopRound sent in inbox, if counted
// admits it.
func (c *RotorCore) Opinion(inbox simnet.Inbox, counted func(ids.ID) bool) (x wire.Value, ok bool) {
	x, ok = c.Opinions(inbox, counted)[c.instance]
	return x, ok
}

// Opinions is lines 14–15 for every instance tag at once: per tag, the
// opinion the coordinator selected by the last LoopRound sent in inbox,
// if counted admits it; of several, the one with the greatest encoding.
func (c *RotorCore) Opinions(inbox simnet.Inbox, counted func(ids.ID) bool) map[uint64]wire.Value {
	x, best := map[uint64]wire.Value{}, map[uint64][]byte{}
	if c.last == ids.None || !counted(c.last) {
		return x
	}
	for m := range inbox.All() {
		op, isOp := m.Payload.(wire.Opinion)
		if !isOp || m.From != c.last {
			continue
		}
		if enc, seen := wire.Encode(op), best[op.Instance]; seen == nil || bytes.Compare(enc, seen) > 0 {
			x[op.Instance], best[op.Instance] = op.X, enc
		}
	}
	return x
}

// LoopRound is lines 7–13 and 16–17: the echo rule over the noted
// echoes, emitting each echo, then the selection of C_v[r mod |C_v|].
func (c *RotorCore) LoopRound(nv int, emit func(wire.Payload)) Selection {
	if c.done {
		return Selection{Terminated: true}
	}
	r := c.r
	c.r++
	echoRule(c.echoes, nv, cmp.Compare[ids.ID],
		func(p ids.ID) bool { return c.candidates[p] },
		func(p ids.ID) { emit(wire.IDEcho{Instance: c.instance, Candidate: p}) },
		func(p ids.ID) { c.candidates[p] = true })
	c.echoes = distinct[ids.ID]{}
	cv := c.Candidates()
	if len(cv) == 0 {
		return Selection{}
	}
	p := cv[r%len(cv)]
	sel := Selection{Coordinator: p, Terminated: c.selected[p]}
	if sel.Terminated && !c.cycling {
		c.done = true
		return sel
	}
	c.selected[p], c.last = true, p
	return sel
}

// Candidates returns C_v, ascending.
func (c *RotorCore) Candidates() []ids.ID { return slices.Sorted(maps.Keys(c.candidates)) }

// Rotor is Algorithm 2 as a standalone process: one loop round per
// network round from round 3, terminating on a reselection.
type Rotor struct {
	node
	opinion    wire.Value
	core       *RotorCore
	selections []Selection
	accepted   []AcceptedOpinion
}

// NewRotor returns a node that broadcasts opinion when it is selected.
func NewRotor(id ids.ID, opinion wire.Value) *Rotor {
	return &Rotor{node: node{id, heard{}}, opinion: opinion, core: NewRotorCore(0, false)}
}

// Done implements simnet.Process.
func (n *Rotor) Done() bool { return n.core.done }

// Step implements simnet.Process.
func (n *Rotor) Step(env *simnet.RoundEnv) {
	n.heard.observe(env.Inbox)
	switch env.Round {
	case 1:
		env.Broadcast(wire.Init{})
	case 2:
		echoInits(env)
	default:
		counted := func(p ids.ID) bool { return n.heard[p] }
		n.core.Note(env.Inbox, counted)
		if x, ok := n.core.Opinion(env.Inbox, counted); ok {
			n.accepted = append(n.accepted, AcceptedOpinion{Round: env.Round, From: n.core.last, X: x})
		}
		sel := n.core.LoopRound(len(n.heard), env.Broadcast)
		n.selections = append(n.selections, sel)
		if sel.Coordinator == n.id && !sel.Terminated {
			env.Broadcast(wire.Opinion{X: n.opinion})
		}
	}
}

// Outcome returns the node's selections and accepted opinions, in order.
func (n *Rotor) Outcome() any { return []any{n.selections, n.accepted} }

// AcceptedOpinions returns every coordinator opinion the node accepted.
func (n *Rotor) AcceptedOpinions() []AcceptedOpinion { return n.accepted }

// Approx is Algorithm 4, approximate agreement, iterated for a number of
// rounds (§8); one round is the paper's single-shot protocol.
type Approx struct {
	node
	estimate float64
	rounds   int
	history  []float64 // the estimate after each reduction
}

// NewApprox returns a node that starts from input and reduces rounds
// times.
func NewApprox(id ids.ID, input float64, rounds int) *Approx {
	return &Approx{node: node{id: id}, estimate: input, rounds: rounds}
}

// Done implements simnet.Process.
func (n *Approx) Done() bool { return len(n.history) >= n.rounds }

// Step implements simnet.Process: reduce what arrived, then broadcast the
// estimate unless that was the last reduction.
func (n *Approx) Step(env *simnet.RoundEnv) {
	if env.Round > 1 {
		if x, ok := reduce(Gather(env.Inbox)); ok {
			n.estimate = x
		}
		if n.history = append(n.history, n.estimate); n.Done() {
			return
		}
	}
	env.Broadcast(wire.Input{X: wire.V(n.estimate)})
}

// Outcome returns the estimate after each reduction.
func (n *Approx) Outcome() any { return n.history }

// Gather is R_v: of every sender, the least value it sent as an input of
// instance 0 (⊥ and NaN are no value), ascending.
func Gather(inbox simnet.Inbox) []float64 {
	least := map[ids.ID]float64{}
	for m := range inbox.All() {
		in, ok := m.Payload.(wire.Input)
		if !ok || in.Instance != 0 || in.X.IsBot || math.IsNaN(in.X.X) {
			continue
		}
		if x, seen := least[m.From]; !seen || in.X.X < x {
			least[m.From] = in.X.X
		}
	}
	return slices.Sorted(maps.Values(least))
}

// reduce discards the ⌊n/3⌋ least and greatest of n values and returns
// the midpoint of the rest.
func reduce(values []float64) (float64, bool) {
	if len(values) == 0 {
		return 0, false
	}
	s := slices.Sorted(slices.Values(values))
	k := len(s) / 3
	return (s[k] + s[len(s)-1-k]) / 2, true
}

// Renaming is the appendix renaming algorithm at one correct node: the
// set S agreed by the echo rule over identifiers, then terminate(k)
// agreed by the echo rule over rounds once S held still for two rounds.
type Renaming struct {
	node
	set         heard // S
	changed     bool  // S grew this round
	changedLast bool  // S grew last round
	termRound   int   // 0 until the node terminates
}

// NewRenaming returns a renaming node.
func NewRenaming(id ids.ID) *Renaming {
	return &Renaming{node: node{id, heard{}}, set: heard{}}
}

// Done implements simnet.Process.
func (n *Renaming) Done() bool { return n.termRound != 0 }

// Step implements simnet.Process.
func (n *Renaming) Step(env *simnet.RoundEnv) {
	n.heard.observe(env.Inbox)
	switch env.Round {
	case 1:
		env.Broadcast(wire.Init{})
		return
	case 2:
		echoInits(env)
		return
	}
	echoes, terms := distinct[ids.ID]{}, distinct[uint64]{}
	for m := range env.Inbox.All() {
		switch p := m.Payload.(type) {
		case wire.IDEcho:
			if p.Instance == 0 {
				echoes.add(p.Candidate, m.From)
			}
		case wire.Terminate:
			terms.add(p.Round, m.From)
		}
	}
	nv := len(n.heard)
	n.changedLast, n.changed = n.changed, false
	echoRule(echoes, nv, cmp.Compare[ids.ID],
		func(p ids.ID) bool { return n.set[p] },
		func(p ids.ID) { env.Broadcast(wire.IDEcho{Candidate: p}) },
		func(p ids.ID) { n.set[p], n.changed = true, true })
	if env.Round >= 4 && !n.changed && !n.changedLast {
		env.Broadcast(wire.Terminate{Round: uint64(env.Round - 1)})
	}
	echoRule(terms, nv, cmp.Compare[uint64],
		func(uint64) bool { return false },
		func(k uint64) { env.Broadcast(wire.Terminate{Round: k}) },
		func(uint64) { n.termRound = env.Round })
}

// Outcome returns S, ascending, and the round the node terminated in.
func (n *Renaming) Outcome() any { return []any{slices.Sorted(maps.Keys(n.set)), n.termRound} }
