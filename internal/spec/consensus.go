package spec

import (
	"hash/fnv"
	"math"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// ballot is what p says in a tally of Algorithm 3 or 5: the kind it is
// counted under (input, prefer or strongprefer; a marker under the kind
// it stands in for), its instance, and its value — none for a marker.
func ballot(p wire.Payload) (kind wire.Kind, instance uint64, x wire.Value, opinion bool) {
	switch p := p.(type) {
	case wire.Input:
		return wire.KindInput, p.Instance, p.X, true
	case wire.Prefer:
		return wire.KindPrefer, p.Instance, p.X, true
	case wire.NoPreference:
		return wire.KindPrefer, p.Instance, x, false
	case wire.StrongPrefer:
		return wire.KindStrongPrefer, p.Instance, p.X, true
	case wire.NoStrongPreference:
		return wire.KindStrongPrefer, p.Instance, x, false
	}
	return 0, 0, x, false
}

// count is a tally's best value and how many ballots it got.
type count struct {
	x wire.Value
	c int
}

// tally counts the ballots of one kind and instance in inbox from members
// of census: every value by the distinct members that sent it and, if
// substitute, fill once for every member that sent neither a ballot of
// the kind nor its marker. It returns the value with the most, the least
// of a tie, and how many members it heard.
func tally(inbox simnet.Inbox, census heard, kind wire.Kind, instance uint64, fill wire.Value, substitute bool) (best count, present int) {
	by, value, sent := distinct[wire.ValueKey]{}, map[wire.ValueKey]wire.Value{}, heard{}
	for m := range inbox.All() {
		k, inst, x, opinion := ballot(m.Payload)
		if k != kind || inst != instance || !census[m.From] {
			continue
		}
		sent[m.From] = true
		if opinion {
			by.add(x.Key(), m.From)
			value[x.Key()] = x
		}
	}
	counts := map[wire.ValueKey]int{}
	for k, from := range by {
		counts[k] = len(from)
	}
	if missing := len(census) - len(sent); substitute && missing > 0 {
		counts[fill.Key()] += missing
		value[fill.Key()] = fill
	}
	for k, c := range counts {
		if c > best.c || (c == best.c && value[k].Less(best.x)) {
			best = count{value[k], c}
		}
	}
	return best, len(sent)
}

// Phase is what a node of Algorithm 3 did in one phase: whom it selected
// at PR4, whether it took that coordinator's opinion at PR5, and its
// opinion at the end.
type Phase struct {
	Phase       int
	Coordinator ids.ID
	Adopted     bool
	X           wire.Value
}

// Consensus is Algorithm 3, early-terminating consensus, at one correct
// node: two initialization rounds that fix n_v, then five-round phases —
// input, prefer, strongprefer, a rotor round, resolve. A node that lacks
// a quorum sends the no-quorum marker (Algorithm 5's, which Algorithm 3
// needs too: DESIGN §3), and a census member that sent neither a ballot
// nor a marker is counted as having sent what this node itself sent of
// that kind last round — nothing, if it sent the marker.
type Consensus struct {
	node
	x       wire.Value
	rotor   *RotorCore
	own     map[wire.Kind]wire.Value // the node's last ballot of each kind
	sp      count                    // PR4's strongprefer tally, for PR5
	coord   ids.ID                   // selected at PR4
	phases  []Phase
	decided bool
	output  wire.Value
	round   int // the round the node decided in
}

// NewConsensus returns a node of Algorithm 3 with input x.
func NewConsensus(id ids.ID, x wire.Value) *Consensus {
	return &Consensus{node: node{id, heard{}}, x: x, rotor: NewRotorCore(0, true), own: map[wire.Kind]wire.Value{}}
}

// Done implements simnet.Process.
func (n *Consensus) Done() bool { return n.decided }

// Step implements simnet.Process.
func (n *Consensus) Step(env *simnet.RoundEnv) {
	if n.initRound(env) {
		return
	}
	member := func(p ids.ID) bool { return n.heard[p] }
	nv := len(n.heard)
	n.rotor.Note(env.Inbox, member)
	tallied := func(kind wire.Kind) count {
		own, sent := n.own[kind]
		b, _ := tally(env.Inbox, n.heard, kind, 0, own, sent)
		return b
	}
	switch (env.Round - 3) % 5 {
	case 0: // PR1
		n.vote(env, wire.KindInput, wire.Input{X: n.x}, n.x)
	case 1: // PR2: prefer the value of 2n_v/3 inputs
		if b := tallied(wire.KindInput); 3*b.c >= 2*nv {
			n.vote(env, wire.KindPrefer, wire.Prefer{X: b.x}, b.x)
		} else {
			n.abstain(env, wire.KindPrefer, wire.NoPreference{})
		}
	case 2: // PR3: adopt the value of n_v/3 prefers, strongprefer it at 2n_v/3
		b := tallied(wire.KindPrefer)
		if 3*b.c >= nv {
			n.x = b.x
		}
		if 3*b.c >= 2*nv {
			n.vote(env, wire.KindStrongPrefer, wire.StrongPrefer{X: b.x}, b.x)
		} else {
			n.abstain(env, wire.KindStrongPrefer, wire.NoStrongPreference{})
		}
	case 3: // PR4: keep the strongprefer tally; one rotor round
		n.sp = tallied(wire.KindStrongPrefer)
		n.coord = n.rotor.LoopRound(nv, env.Broadcast).Coordinator
		if n.coord == n.id {
			env.Broadcast(wire.Opinion{X: n.x})
		}
	case 4: // PR5: below n_v/3 strongprefers take the coordinator's opinion; decide at 2n_v/3
		adopted := false
		if 3*n.sp.c < nv {
			if x, ok := n.rotor.Opinion(env.Inbox, member); ok {
				n.x, adopted = x, true
			}
		}
		if 3*n.sp.c >= 2*nv {
			n.decided, n.output, n.round = true, n.sp.x, env.Round
		}
		n.phases = append(n.phases, Phase{len(n.phases), n.coord, adopted, n.x})
	}
}

// vote broadcasts p, the node's ballot of kind with value x, and keeps x
// for the substitution rule; abstain broadcasts the kind's marker, after
// which the rule substitutes nothing.
func (n *Consensus) vote(env *simnet.RoundEnv, kind wire.Kind, p wire.Payload, x wire.Value) {
	env.Broadcast(p)
	n.own[kind] = x
}

func (n *Consensus) abstain(env *simnet.RoundEnv, kind wire.Kind, marker wire.Payload) {
	env.Broadcast(marker)
	delete(n.own, kind)
}

// Outcome returns the decided value, whether there is one, the round it
// was decided in and every phase, as []any.
func (n *Consensus) Outcome() any { return []any{n.output, n.decided, n.round, n.phases} }

// TRB is the appendix's terminating reliable broadcast at a correct node
// that is not the source: Algorithm 3 whose input is the fingerprint of
// the message the node received from the source itself in round 2 — the
// first in inbox order, relayed — or ⊥ if none came, with every body
// seen on the wire kept to name the decided fingerprint's preimage.
type TRB struct {
	*Consensus
	source ids.ID
	bodies map[uint64][]byte // by fingerprint bits, the first body seen
}

// NewTRB returns a node of the broadcast from source.
func NewTRB(id, source ids.ID) *TRB {
	return &TRB{Consensus: NewConsensus(id, wire.Bot()), source: source, bodies: map[uint64][]byte{}}
}

// fingerprint is a body as an opinion of Algorithm 3: its 64-bit FNV-1a
// hash as a float's bits.
func fingerprint(body []byte) wire.Value {
	h := fnv.New64a()
	h.Write(body)
	return wire.V(math.Float64frombits(h.Sum64()))
}

// Step implements simnet.Process.
func (n *TRB) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		rb, ok := m.Payload.(wire.RBMessage)
		if !ok || env.Round == 2 && (m.From != n.source || rb.Source != n.source) {
			continue
		}
		if k := math.Float64bits(fingerprint(rb.Body).X); n.bodies[k] == nil {
			n.bodies[k] = append([]byte{}, rb.Body...)
		}
		if env.Round == 2 {
			n.x = fingerprint(rb.Body)
			env.Broadcast(wire.RBMessage{Source: n.source, Body: rb.Body})
			break
		}
	}
	n.Consensus.Step(env)
}

// Outcome returns the delivered body, whether one was delivered, whether
// the node terminated, and Algorithm 3's outcome, as []any.
func (n *TRB) Outcome() any {
	delivered := n.decided && !n.output.IsBot
	var body []byte
	if delivered {
		body = n.bodies[math.Float64bits(n.output.X)]
	}
	return []any{string(body), delivered, n.decided, n.Consensus.Outcome()}
}

func (n *Consensus) consensus() *Consensus { return n }

// PastFirstPhase reports whether, in a run of Algorithm 3 or of
// terminating reliable broadcast, a node took a coordinator's opinion
// and a node decided after the first phase.
func PastFirstPhase(nodes []simnet.Process) bool {
	adopted, decided := false, false
	for _, p := range nodes {
		n := p.(interface{ consensus() *Consensus }).consensus()
		for _, ph := range n.phases {
			adopted = adopted || ph.Adopted
		}
		decided = decided || n.decided && len(n.phases) > 1
	}
	return adopted && decided
}
