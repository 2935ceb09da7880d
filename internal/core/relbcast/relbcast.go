// Package relbcast implements Algorithm 1 of the paper: reliable
// broadcast in the id-only model.
//
// Reliable broadcast forces a (possibly Byzantine) source s to be
// consistent: a message (m, s) is either accepted by every correct node
// or by none, and if s is correct every correct node accepts exactly what
// s broadcast. The classic construction (Srikanth & Toueg) compares echo
// counts against the known quantities f+1 and 2f+1; here nodes know
// neither n nor f, and compare against n_v/3 and 2n_v/3 where n_v is the
// number of distinct nodes that have messaged v so far.
//
// Round structure (each Step call is one round):
//
//	round 1: the source broadcasts (m, s); every other correct node
//	         broadcasts "present" (this is what makes n_v ≥ g everywhere).
//	round 2: any node that received (m, s) directly from s broadcasts
//	         echo(m, s).
//	round ≥3: with n_v updated, a node that received ≥ n_v/3 echo(m, s)
//	         this round and has not yet accepted re-broadcasts the echo;
//	         at ≥ 2n_v/3 it accepts (m, s).
//
// The protocol is deliberately non-terminating (the embedding protocol
// supplies termination); run it under a stop predicate such as "all
// correct nodes accepted" or a fixed horizon.
//
// Properties (all proved in the paper for n > 3f, all tested here):
// correctness (correct source ⇒ everyone accepts in round 3),
// unforgeability (acceptance of (m, s) with correct s implies s sent it),
// and relay (if a correct node accepts in round r, all do by r+1).
package relbcast

import (
	"cmp"
	"maps"
	"slices"

	"uba/internal/census"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// key identifies a broadcast (m, s) pair.
type key struct {
	source ids.ID
	body   string
}

// byKey orders pairs by source id, then body: the order a node's echoes
// of one round are sent in.
func byKey(a, b key) int {
	if c := cmp.Compare(a.source, b.source); c != 0 {
		return c
	}
	return cmp.Compare(a.body, b.body)
}

// Acceptance records when a node accepted a broadcast.
type Acceptance struct {
	// Source is s of the accepted (m, s).
	Source ids.ID
	// Body is m of the accepted (m, s).
	Body []byte
	// Round is the round in which the node accepted.
	Round int
}

// Node is one correct participant in reliable broadcast. A Node can be the
// source of its own broadcast and simultaneously a relay for any number of
// other (m, s) pairs; acceptance is tracked per pair.
type Node struct {
	id       ids.ID
	body     []byte
	isSource bool

	cen      census.Census
	ranks    census.Ranks
	echoes   census.Window[key] // pair -> distinct echoers this round
	accepted map[key]int        // pair -> acceptance round
	sorted   []Acceptance       // accepted in byKey order, rebuilt by inOrder
}

var _ simnet.Process = (*Node)(nil)

// NewSource returns a node that broadcasts body as (body, id) in round 1.
func NewSource(id ids.ID, body []byte) *Node {
	return &Node{
		id:       id,
		body:     append([]byte(nil), body...),
		isSource: true,
		accepted: make(map[key]int),
	}
}

// NewRelay returns a non-source participant.
func NewRelay(id ids.ID) *Node {
	return &Node{id: id, accepted: make(map[key]int)}
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process; reliable broadcast never terminates on
// its own (Algorithm 1 runs "rounds 3 to ∞").
func (n *Node) Done() bool { return false }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	rotor.ObserveSenders(&n.cen, &env.Inbox)

	switch env.Round {
	case 1:
		if n.isSource {
			env.Broadcast(wire.RBMessage{Source: n.id, Body: n.body})
		} else {
			env.Broadcast(wire.Present{})
		}
	case 2:
		// Echo only messages received *directly from their claimed
		// source*: the engine-stamped From must match the (m, s)
		// source. A Byzantine node relaying someone else's (m, s) in
		// round 1 does not trigger this echo.
		for m := range env.Inbox.All() {
			rb, ok := m.Payload.(wire.RBMessage)
			if !ok || m.From != rb.Source {
				continue
			}
			env.Broadcast(wire.RBEcho{Source: rb.Source, Body: rb.Body})
		}
	default:
		n.loopRound(env)
	}
}

// loopRound is one round of Algorithm 1's loop: with n_v updated, re-echo
// every pair not yet accepted that at least n_v/3 distinct nodes echoed
// this round, and accept it at 2n_v/3.
func (n *Node) loopRound(env *simnet.RoundEnv) {
	view := rotor.Count(&env.Inbox, n.cen.Members(), &n.ranks)
	rotor.Heard(&env.Inbox, view, func(p wire.Payload, from rotor.Senders) {
		if echo, ok := p.(wire.RBEcho); ok {
			if who, count := from.Ranks(); count > 0 {
				n.echoes.Add(key{source: echo.Source, body: string(echo.Body)}, who)
			}
		}
	})
	n.echoes.Fold(n.cen.N(), byKey, n.hasAccepted, func(k key, quorum bool) {
		env.Broadcast(wire.RBEcho{Source: k.source, Body: []byte(k.body)})
		if quorum {
			n.accepted[k] = env.Round
		}
	})
}

func (n *Node) hasAccepted(k key) bool {
	_, done := n.accepted[k]
	return done
}

// Accepted returns every (m, s) pair this node has accepted, ordered by
// source id then body.
func (n *Node) Accepted() []Acceptance {
	out := slices.Clone(n.inOrder())
	for i := range out {
		out[i].Body = slices.Clone(out[i].Body)
	}
	return out
}

// Acceptances yields what Accepted returns without copying it: the
// read-only path for callers that look every round and keep nothing.
// The yielded Body is the node's own and must not be modified.
func (n *Node) Acceptances(yield func(Acceptance) bool) {
	for _, acc := range n.inOrder() {
		if !yield(acc) {
			return
		}
	}
}

// inOrder is the accepted pairs sorted by source id, then body. Step pays
// nothing for it: the order is built when a reader asks and rebuilt only
// after the node accepted something more — an acceptance is never
// withdrawn or changed, so the count tells.
func (n *Node) inOrder() []Acceptance {
	if len(n.sorted) != len(n.accepted) {
		n.sorted = n.sorted[:0]
		for _, k := range slices.SortedFunc(maps.Keys(n.accepted), byKey) {
			n.sorted = append(n.sorted, Acceptance{Source: k.source, Body: []byte(k.body), Round: n.accepted[k]})
		}
	}
	return n.sorted
}

// HasAccepted reports whether the node accepted (body, source), and if so
// in which round.
func (n *Node) HasAccepted(source ids.ID, body []byte) (round int, ok bool) {
	round, ok = n.accepted[key{source: source, body: string(body)}]
	return round, ok
}

// NV exposes the node's current n_v for tests and experiments.
func (n *Node) NV() int { return n.cen.N() }
