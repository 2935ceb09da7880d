package rotor

import (
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Node is the standalone rotor-coordinator protocol (Algorithm 2): one
// rotor round per network round, dynamic n_v, termination on reselection.
type Node struct {
	id      ids.ID
	opinion wire.Value
	core    *Core
	cen     census.Census
	ranks   census.Ranks

	selections []Selection
	accepted   []AcceptedOpinion
}

var _ simnet.Process = (*Node)(nil)

// New returns a rotor participant whose (fixed) opinion is broadcast if it
// is ever selected as coordinator.
func New(id ids.ID, opinion wire.Value) *Node {
	return &Node{id: id, opinion: opinion, core: NewCore(0)}
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.core.Terminated() }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	ObserveSenders(&n.cen, env.Inbox)
	switch env.Round {
	case 1:
		n.core.BroadcastInit(env)
	case 2:
		n.core.EchoInits(env.Inbox, env)
	default:
		n.ranks.Reset(env.Inbox.Broadcasters(), &n.cen)
		n.core.NoteInbox(env.Inbox, &n.ranks)
		// Lines 14-15: accept the opinion of last round's coordinator.
		last := AcceptedOpinion{Round: env.Round, From: n.core.lastSelected}
		heard := false
		n.core.Opinions(env.Inbox, &n.ranks, func(op wire.Opinion) {
			if op.Instance == 0 {
				last.X, heard = op.X, true
			}
		})
		if heard {
			n.accepted = append(n.accepted, last)
		}
		sel := n.core.LoopRound(n.cen.N(), env)
		n.selections = append(n.selections, sel)
		if sel.Coordinator == n.id && !sel.Terminated {
			env.Broadcast(wire.Opinion{X: n.opinion})
		}
	}
}

// Selections returns the per-loop-round outcomes, in order. The selection
// for loop round r (network round r+3) is Selections()[r].
func (n *Node) Selections() []Selection {
	out := make([]Selection, len(n.selections))
	copy(out, n.selections)
	return out
}

// AcceptedOpinions returns every coordinator opinion the node accepted.
func (n *Node) AcceptedOpinions() []AcceptedOpinion {
	out := make([]AcceptedOpinion, len(n.accepted))
	copy(out, n.accepted)
	return out
}

// Opinions yields every accepted coordinator opinion in acceptance order
// without copying: the read-only path of AcceptedOpinions, for callers
// that look and do not keep.
func (n *Node) Opinions(yield func(AcceptedOpinion) bool) {
	for _, a := range n.accepted {
		if !yield(a) {
			return
		}
	}
}

// Candidates exposes C_v for tests and experiments.
func (n *Node) Candidates() *ids.Set { return n.core.Candidates() }

// NV exposes the node's current n_v.
func (n *Node) NV() int { return n.cen.N() }
