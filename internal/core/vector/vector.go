// Package vector implements interactive consistency in the id-only
// model, as a demonstration of the paper's Discussion-section remark
// that algorithms combining the discussed primitives "compile" to the
// unknown-n,f setting with resiliency unaffected.
//
// Interactive consistency: every node contributes one value; all correct
// nodes agree on a vector containing every correct node's value under its
// identifier. The id-only twist is that nodes cannot even enumerate the
// vector's slots up front — they do not know who exists.
//
// Construction (the terminating-reliable-broadcast pattern, batched):
//
//	round 1: every node broadcasts its (own id, value) — the network
//	         stamps the sender, so slots are unforgeable — alongside the
//	         parallel-consensus init;
//	round 2: every node turns each directly received (s, x) into an input
//	         pair (s, x) of one shared ParallelConsensus run;
//	then:    Algorithm 5 decides every slot in parallel in O(f) rounds.
//
// Validity of parallel consensus guarantees every correct node's value
// survives (every correct node holds it as an input pair after round 2);
// agreement guarantees a common vector. A Byzantine node that equivocates
// its value ends up with one agreed value for its slot, or none.
package vector

import (
	"encoding/binary"
	"math"

	"uba/internal/core/parallelcon"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Entry is one agreed vector slot.
type Entry struct {
	// Node is the slot owner's identifier.
	Node ids.ID
	// Value is the agreed value for the slot.
	Value float64
}

// Node is one interactive-consistency participant.
type Node struct {
	id    ids.ID
	value float64
	pc    *parallelcon.Node
}

var _ simnet.Process = (*Node)(nil)

// New returns a participant contributing value under its own id.
func New(id ids.ID, value float64) *Node {
	return &Node{
		id:    id,
		value: value,
		pc:    parallelcon.New(id, nil, parallelcon.Options{}),
	}
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.pc.Done() }

// Vector returns the agreed vector, sorted by node id.
func (n *Node) Vector() []Entry {
	outputs := n.pc.Outputs()
	entries := make([]Entry, 0, len(outputs))
	for _, p := range outputs {
		entries = append(entries, Entry{Node: ids.ID(p.Instance), Value: p.X.X})
	}
	return entries
}

// Rounds returns the number of completed parallel-consensus phases.
func (n *Node) Rounds() int { return n.pc.Phases() }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		body := binary.LittleEndian.AppendUint64(nil, math.Float64bits(n.value))
		env.Broadcast(wire.Event{Round: 0, Body: body})
	case 2:
		// Every directly received contribution becomes an input pair
		// for the sender's slot; the stamped From makes the slot
		// unforgeable.
		for m := range env.Inbox.All() {
			ev, ok := m.Payload.(wire.Event)
			if !ok || ev.Round != 0 || len(ev.Body) != 8 {
				continue
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(ev.Body))
			if math.IsNaN(x) {
				continue
			}
			n.pc.AddInput(parallelcon.InputPair{
				Instance: uint64(m.From),
				X:        wire.V(x),
			})
		}
	}
	n.pc.Step(env)
}
