// Package baseline implements the classic known-n, known-f comparators
// the paper generalizes, for head-to-head experiments:
//
//   - STBroadcast: Srikanth–Toueg reliable broadcast (thresholds f+1 and
//     2f+1 against the known f) — the ancestor of Algorithm 1;
//   - KingConsensus: the king/phase-king algorithm with consecutive
//     identifiers and known n, f (thresholds n−f and f+1, king of phase k
//     is the node with the k-th smallest id, f+1 phases, no early
//     termination) — the ancestor of Algorithm 3;
//   - ApproxAgreement: Dolev et al.'s rule discarding exactly f values
//     from each end — the ancestor of Algorithm 4;
//   - Rotor: the trivial rotor-coordinator with known f and consecutive
//     identifiers (coordinator of round k is id k, f+1 rounds) — what
//     Algorithm 2 replaces.
//
// These comparators quantify the paper's Discussion-section claim that
// removing the knowledge of n and f leaves round and message complexity
// essentially unchanged.
package baseline

import (
	"sort"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// STBroadcast is one participant of Srikanth–Toueg reliable broadcast with
// known f. Echo counts are cumulative over distinct senders, per the
// classic formulation.
type STBroadcast struct {
	id       ids.ID
	f        int
	body     []byte
	isSource bool

	echoSenders map[stKey]map[ids.ID]struct{}
	echoedPairs map[stKey]struct{}
	accepted    map[stKey]int
	bodies      map[stKey][]byte
}

type stKey struct {
	source ids.ID
	body   string
}

var _ simnet.Process = (*STBroadcast)(nil)

// NewSTSource returns the broadcast source.
func NewSTSource(id ids.ID, f int, body []byte) *STBroadcast {
	n := newST(id, f)
	n.isSource = true
	n.body = append([]byte(nil), body...)
	return n
}

// NewSTRelay returns a non-source participant.
func NewSTRelay(id ids.ID, f int) *STBroadcast { return newST(id, f) }

func newST(id ids.ID, f int) *STBroadcast {
	return &STBroadcast{
		id:          id,
		f:           f,
		echoSenders: make(map[stKey]map[ids.ID]struct{}),
		echoedPairs: make(map[stKey]struct{}),
		accepted:    make(map[stKey]int),
		bodies:      make(map[stKey][]byte),
	}
}

// ID implements simnet.Process.
func (n *STBroadcast) ID() ids.ID { return n.id }

// Done implements simnet.Process (non-terminating, like Algorithm 1).
func (n *STBroadcast) Done() bool { return false }

// HasAccepted reports acceptance of (body, source).
func (n *STBroadcast) HasAccepted(source ids.ID, body []byte) (int, bool) {
	round, ok := n.accepted[stKey{source: source, body: string(body)}]
	return round, ok
}

// Step implements simnet.Process.
func (n *STBroadcast) Step(env *simnet.RoundEnv) {
	if env.Round == 1 {
		if n.isSource {
			env.Broadcast(wire.RBMessage{Source: n.id, Body: n.body})
		}
		return
	}
	for m := range env.Inbox.All() {
		switch p := m.Payload.(type) {
		case wire.RBMessage:
			if m.From != p.Source {
				continue
			}
			k := stKey{source: p.Source, body: string(p.Body)}
			n.bodies[k] = p.Body
			n.echo(env, k)
		case wire.RBEcho:
			k := stKey{source: p.Source, body: string(p.Body)}
			n.bodies[k] = p.Body
			senders := n.echoSenders[k]
			if senders == nil {
				senders = make(map[ids.ID]struct{})
				n.echoSenders[k] = senders
			}
			senders[m.From] = struct{}{}
		}
	}
	// Threshold checks on cumulative distinct-echo counts.
	order := make([]stKey, 0, len(n.echoSenders))
	for k := range n.echoSenders {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].source != order[j].source {
			return order[i].source < order[j].source
		}
		return order[i].body < order[j].body
	})
	for _, k := range order {
		count := len(n.echoSenders[k])
		if count >= n.f+1 {
			n.echo(env, k)
		}
		if count >= 2*n.f+1 {
			if _, done := n.accepted[k]; !done {
				n.accepted[k] = env.Round
			}
		}
	}
}

func (n *STBroadcast) echo(env *simnet.RoundEnv, k stKey) {
	if _, done := n.echoedPairs[k]; done {
		return
	}
	n.echoedPairs[k] = struct{}{}
	env.Broadcast(wire.RBEcho{Source: k.source, Body: n.bodies[k]})
}

// KingConsensus is one participant of the phase-king algorithm with known
// n, f and consecutive identifiers 1..n. Each phase has four rounds:
//
//	R1: broadcast value          R2: tally; ≥ n−f ⇒ broadcast propose
//	R3: tally proposes (> f ⇒ adopt); king broadcasts its value
//	R4: adopt the king's value unless proposes reached n−f
//
// It always runs f+1 phases (no early termination) and then outputs.
type KingConsensus struct {
	id ids.ID
	n  int
	f  int
	x  wire.Value

	proposeCount int
	kingValue    wire.Value
	kingOK       bool

	decided bool
	output  wire.Value
}

var _ simnet.Process = (*KingConsensus)(nil)

// NewKing returns a phase-king participant. Identifiers must be the
// consecutive range 1..n (the assumption the paper removes).
func NewKing(id ids.ID, n, f int, input wire.Value) *KingConsensus {
	return &KingConsensus{id: id, n: n, f: f, x: input}
}

// ID implements simnet.Process.
func (k *KingConsensus) ID() ids.ID { return k.id }

// Done implements simnet.Process.
func (k *KingConsensus) Done() bool { return k.decided }

// Output returns the decided value.
func (k *KingConsensus) Output() (wire.Value, bool) { return k.output, k.decided }

// Step implements simnet.Process.
func (k *KingConsensus) Step(env *simnet.RoundEnv) {
	phase := (env.Round - 1) / 4
	kingID := ids.ID(phase + 1)
	switch (env.Round - 1) % 4 {
	case 0: // R1: broadcast value
		env.Broadcast(wire.Input{X: k.x})
	case 1: // R2: tally values, maybe propose
		counts := tallyValues(env.Inbox, wire.KindInput)
		v, count := bestValue(counts)
		if count >= k.n-k.f {
			env.Broadcast(wire.Prefer{X: v})
		}
	case 2: // R3: tally proposes; king broadcasts
		counts := tallyValues(env.Inbox, wire.KindPrefer)
		v, count := bestValue(counts)
		k.proposeCount = count
		if count > k.f {
			k.x = v
		}
		if k.id == kingID {
			env.Broadcast(wire.Opinion{X: k.x})
		}
	case 3: // R4: adopt king unless a strong propose quorum was seen
		k.kingOK = false
		for m := range env.Inbox.All() {
			if op, ok := m.Payload.(wire.Opinion); ok && m.From == kingID {
				k.kingValue = op.X
				k.kingOK = true
			}
		}
		if k.proposeCount < k.n-k.f && k.kingOK {
			k.x = k.kingValue
		}
		if phase == k.f { // phases 0..f completed
			k.decided = true
			k.output = k.x
		}
	}
}

// ApproxAgreement is Dolev et al.'s single-round rule with known f:
// broadcast, discard exactly f lowest and f highest, output the midpoint
// of the surviving extremes.
type ApproxAgreement struct {
	id     ids.ID
	f      int
	input  float64
	output float64
	done   bool
}

var _ simnet.Process = (*ApproxAgreement)(nil)

// NewApprox returns a known-f approximate-agreement participant.
func NewApprox(id ids.ID, f int, input float64) *ApproxAgreement {
	return &ApproxAgreement{id: id, f: f, input: input}
}

// ID implements simnet.Process.
func (a *ApproxAgreement) ID() ids.ID { return a.id }

// Done implements simnet.Process.
func (a *ApproxAgreement) Done() bool { return a.done }

// Output returns the node's output once done.
func (a *ApproxAgreement) Output() (float64, bool) { return a.output, a.done }

// Step implements simnet.Process.
func (a *ApproxAgreement) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		env.Broadcast(wire.Input{X: wire.V(a.input)})
	case 2:
		values := make([]float64, 0, env.Inbox.Len())
		perSender := make(map[ids.ID]struct{}, env.Inbox.Len())
		for m := range env.Inbox.All() {
			in, ok := m.Payload.(wire.Input)
			if !ok || in.X.IsBot {
				continue
			}
			if _, dup := perSender[m.From]; dup {
				continue
			}
			perSender[m.From] = struct{}{}
			values = append(values, in.X.X)
		}
		sort.Float64s(values)
		if len(values) > 2*a.f {
			kept := values[a.f : len(values)-a.f]
			a.output = (kept[0] + kept[len(kept)-1]) / 2
		} else {
			a.output = a.input
		}
		a.done = true
	}
}

// Rotor is the trivial known-f rotor-coordinator with consecutive ids:
// the coordinator of round k is the node with id k, for k = 1..f+1. No
// setup rounds and exactly f+1 rounds total.
type Rotor struct {
	id      ids.ID
	f       int
	opinion wire.Value

	accepted []rotorOpinion
	done     bool
}

type rotorOpinion struct {
	round int
	from  ids.ID
	x     wire.Value
}

var _ simnet.Process = (*Rotor)(nil)

// NewRotor returns a trivial-rotor participant (ids must be 1..n).
func NewRotor(id ids.ID, f int, opinion wire.Value) *Rotor {
	return &Rotor{id: id, f: f, opinion: opinion}
}

// ID implements simnet.Process.
func (r *Rotor) ID() ids.ID { return r.id }

// Done implements simnet.Process.
func (r *Rotor) Done() bool { return r.done }

// AcceptedFrom reports whether an opinion from the given coordinator was
// accepted and with which value.
func (r *Rotor) AcceptedFrom(id ids.ID) (wire.Value, bool) {
	for _, a := range r.accepted {
		if a.from == id {
			return a.x, true
		}
	}
	return wire.Value{}, false
}

// Step implements simnet.Process.
func (r *Rotor) Step(env *simnet.RoundEnv) {
	// Opinion from the previous round's coordinator.
	if env.Round > 1 {
		prev := ids.ID(env.Round - 1)
		for m := range env.Inbox.All() {
			if op, ok := m.Payload.(wire.Opinion); ok && m.From == prev {
				r.accepted = append(r.accepted, rotorOpinion{
					round: env.Round, from: prev, x: op.X,
				})
			}
		}
	}
	if env.Round <= r.f+1 {
		if r.id == ids.ID(env.Round) {
			env.Broadcast(wire.Opinion{X: r.opinion})
		}
		return
	}
	r.done = true
}

// tallyValues counts opinion-carrying payloads of one kind per value.
func tallyValues(inbox simnet.Inbox, kind wire.Kind) map[wire.ValueKey]valueCount {
	counts := make(map[wire.ValueKey]valueCount)
	for m := range inbox.All() {
		var v wire.Value
		switch p := m.Payload.(type) {
		case wire.Input:
			if kind != wire.KindInput {
				continue
			}
			v = p.X
		case wire.Prefer:
			if kind != wire.KindPrefer {
				continue
			}
			v = p.X
		default:
			continue
		}
		c := counts[v.Key()]
		c.value = v
		c.count++
		counts[v.Key()] = c
	}
	return counts
}

type valueCount struct {
	value wire.Value
	count int
}

func bestValue(counts map[wire.ValueKey]valueCount) (wire.Value, int) {
	var best wire.Value
	bestCount := 0
	first := true
	for _, c := range counts {
		switch {
		case first || c.count > bestCount:
			best, bestCount = c.value, c.count
			first = false
		case c.count == bestCount && c.value.Less(best):
			best = c.value
		}
	}
	return best, bestCount
}
