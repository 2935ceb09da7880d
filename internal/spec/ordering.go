package spec

import (
	"bytes"
	"maps"
	"slices"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// tag is the instance tag of (round, submitter) on the wire: the round
// above the 48-bit submitter id. Submitter 0 is the round's rotor tag.
func tag(round uint64, submitter ids.ID) uint64 { return round<<48 | uint64(submitter) }

// Entry is one event of an Algorithm 6 chain: the round whose execution
// decided it, the node that submitted it, and its value.
type Entry struct {
	Round     uint64
	Submitter ids.ID
	Value     float64
}

// execution is the scoped Algorithm 5 execution a node of Algorithm 6
// started in protocol round round, under S = s.
type execution struct {
	*ParallelConsensus
	round uint64
	s     []ids.ID
}

// Ordering is Algorithm 6, total ordering in a dynamic network, at one
// correct node. It keeps every member it knows with the protocol round
// it is active from — a present heard in round r from a node it does not
// know makes that node a member from r+2 and is answered with an ack of
// r, an absent deletes its sender — and S, every round, is the members
// active by then. In round
// r it broadcasts its next submitted event, takes as input pairs the
// round r−1 events of members of S (of a member's several, the greatest
// encoding), and starts execution r: Algorithm 5 scoped to S, tagged by
// (r, submitter). An execution r′ is final at round r once it has
// terminated and r − r′ > 5|S^{r′}|/2 + 2, and the chain is the outputs of
// the executions final in round order, by (round, submitter). A joiner
// broadcasts present until an ack comes, then takes the round most acks
// carry (the least of a tie) and their senders as S; a leaver broadcasts
// absent, starts no execution, and is done once its executions have
// terminated. The spec bounds no round: the 16 bits a tag gives the round
// (ordering.MaxRound) are the implementation's limit, not the paper's.
type Ordering struct {
	id                   ids.ID
	joined, joining      bool
	leave, leaving, left bool
	r                    uint64
	active               map[ids.ID]uint64 // member → the round it is active from
	events               []float64         // submitted, not yet broadcast
	execs                []*execution      // every one started, in round order
}

// NewOrdering returns a founding member of an Algorithm 6 system whose
// members in round 1 are founders and id, or, if founders is nil, a
// joiner that announces itself in its first round.
func NewOrdering(id ids.ID, founders []ids.ID) *Ordering {
	n := &Ordering{id: id, joined: founders != nil, active: map[ids.ID]uint64{}}
	for _, p := range founders {
		n.active[p] = 0
	}
	if n.joined {
		n.active[id] = 0
	}
	return n
}

// ID implements simnet.Process.
func (n *Ordering) ID() ids.ID { return n.id }

// Done implements simnet.Process: the node has left.
func (n *Ordering) Done() bool { return n.left }

// SubmitEvent queues x, broadcast one per round.
func (n *Ordering) SubmitEvent(x float64) { n.events = append(n.events, x) }

// Leave makes the node announce its absence in its next round.
func (n *Ordering) Leave() { n.leave = true }

// members is S in round r, ascending.
func (n *Ordering) members(r uint64) []ids.ID {
	var s []ids.ID
	for p, from := range n.active {
		if from <= r {
			s = append(s, p)
		}
	}
	slices.Sort(s)
	return s
}

// Step implements simnet.Process.
func (n *Ordering) Step(env *simnet.RoundEnv) {
	if n.left {
		return
	}
	if !n.joined {
		n.handshake(env)
		return
	}
	n.r++
	s := n.members(n.r)
	events := map[ids.ID]wire.Event{}
	for m := range env.Inbox.All() {
		switch p := m.Payload.(type) {
		case wire.Present:
			if _, known := n.active[m.From]; !known {
				n.active[m.From] = n.r + 2
				env.Send(m.From, wire.Ack{Round: n.r})
			}
		case wire.Absent:
			delete(n.active, m.From)
		case wire.Event:
			last, seen := events[m.From]
			if _, ok := value(p); ok && p.Round == n.r-1 && slices.Contains(s, m.From) &&
				(!seen || bytes.Compare(wire.Encode(p), wire.Encode(last)) > 0) {
				events[m.From] = p
			}
		}
	}
	if n.leave && !n.leaving {
		env.Broadcast(wire.Absent{})
		n.leaving = true
	}
	if !n.leaving {
		if len(n.events) > 0 {
			env.Broadcast(wire.Event{Round: n.r, Body: contribution(n.events[0]).Body})
			n.events = n.events[1:]
		}
		var inputs []Pair
		for _, p := range slices.Sorted(maps.Keys(events)) {
			x, _ := value(events[p])
			inputs = append(inputs, Pair{tag(n.r, p), wire.V(x)})
		}
		n.execs = append(n.execs, &execution{NewScopedParallelConsensus(n.id, inputs,
			Scoped{S: s, Start: env.Round, Round: n.r}), n.r, s})
	}
	done := true
	for _, e := range n.execs {
		if !e.done {
			e.Step(env)
			done = done && e.done
		}
	}
	n.left = n.leaving && done
}

// handshake is a joiner's Step: present, then, once acks arrive, the
// round and S they give.
func (n *Ordering) handshake(env *simnet.RoundEnv) {
	if n.joining {
		acks := distinct[uint64]{}
		for m := range env.Inbox.All() {
			if a, ok := m.Payload.(wire.Ack); ok {
				acks.add(a.Round, m.From)
			}
		}
		if len(acks) > 0 {
			var best uint64
			for _, r := range slices.Sorted(maps.Keys(acks)) {
				if len(acks[r]) > len(acks[best]) {
					best = r
				}
			}
			for _, from := range acks {
				for p := range from {
					n.active[p] = 0
				}
			}
			n.active[n.id], n.r, n.joined = 0, best+1, true
			return
		}
	}
	env.Broadcast(wire.Present{})
	n.joining = true
}

// chain returns the node's chain and the round of the last execution in
// it, 0 if none.
func (n *Ordering) chain() (chain []Entry, through uint64) {
	for _, e := range n.execs {
		if !e.done || 2*(n.r-e.round) <= uint64(5*len(e.s)+4) {
			break
		}
		for _, p := range e.Outputs() {
			chain = append(chain, Entry{e.round, ids.ID(p.Instance - tag(e.round, 0)), p.X.X})
		}
		through = e.round
	}
	return chain, through
}

// Outcome returns the chain, the round it is final through, the node's
// round, S, and whether it has left, as []any.
func (n *Ordering) Outcome() any {
	chain, through := n.chain()
	return []any{chain, through, n.r, n.members(n.r), n.left}
}

// The ForOrdering row's churn: the joiner announces itself in round
// JoinRound, and the leaver asks to leave in round LeaveRound.
const (
	JoinRound  = 7
	LeaveRound = 10
)

// Orderer is a node of Algorithm 6, of either side, as the ForOrdering
// row drives it.
type Orderer interface {
	simnet.Process
	SubmitEvent(float64)
	Leave()
}

// Churned is a node of the ForOrdering row: it has submitted its role's
// Input, it is not stepped before round JoinRound if it is the joiner,
// and it asks to leave in round LeaveRound if it is the first founder.
type Churned struct {
	Orderer
	join, leave int
}

// Churned returns n as r's node of the ForOrdering row.
func (r Role) Churned(n Orderer) *Churned {
	n.SubmitEvent(r.Input)
	c := &Churned{Orderer: n}
	if !slices.Contains(r.Founders, r.ID) {
		c.join = JoinRound
	}
	if r.ID == r.Founders[0] {
		c.leave = LeaveRound
	}
	return c
}

// Step implements simnet.Process.
func (c *Churned) Step(env *simnet.RoundEnv) {
	if env.Round < c.join {
		return
	}
	if env.Round == c.leave {
		c.Leave()
	}
	c.Orderer.Step(env)
}

// Outcome is the spec node's.
func (c *Churned) Outcome() any { return c.Orderer.(*Ordering).Outcome() }

// ChurnShown is what some run of the ForOrdering row must show, by what
// Somewhere reports missing.
var ChurnShown = map[string]func(nodes []simnet.Process) bool{
	"finalized a chain entry": func(nodes []simnet.Process) bool {
		return slices.ContainsFunc(orderings(nodes), func(n *Ordering) bool { c, _ := n.chain(); return len(c) > 0 })
	},
	"joined an instance by first contact in an execution started with no inputs": func(nodes []simnet.Process) bool {
		return slices.ContainsFunc(orderings(nodes), func(n *Ordering) bool {
			return slices.ContainsFunc(n.execs, func(e *execution) bool { return e.contacts > 0 && e.contacts == len(e.instances) })
		})
	},
	"changed S mid-run": func(nodes []simnet.Process) bool {
		return slices.ContainsFunc(orderings(nodes), func(n *Ordering) bool {
			return slices.ContainsFunc(n.execs, func(e *execution) bool { return !slices.Equal(e.s, n.execs[0].s) })
		})
	},
	"admitted a joiner to a founder's S": func(nodes []simnet.Process) bool {
		all := orderings(nodes)
		return slices.ContainsFunc(all, func(j *Ordering) bool {
			return j.joining && j.joined && slices.ContainsFunc(all, func(n *Ordering) bool {
				return !n.joining && slices.Contains(n.members(n.r), j.id)
			})
		})
	},
	"left and ended done": func(nodes []simnet.Process) bool {
		return slices.ContainsFunc(orderings(nodes), func(n *Ordering) bool { return n.leaving && n.left })
	},
	"admitted a chatterer to S by its present": func(nodes []simnet.Process) bool {
		all := orderings(nodes)
		return slices.ContainsFunc(all, func(n *Ordering) bool {
			return slices.ContainsFunc(n.members(n.r), func(p ids.ID) bool { return n.active[p] > 0 && !correct(all, p) })
		})
	},
	"finalized a chatterer's event": func(nodes []simnet.Process) bool {
		all := orderings(nodes)
		return slices.ContainsFunc(all, func(n *Ordering) bool {
			chain, _ := n.chain()
			return slices.ContainsFunc(chain, func(e Entry) bool { return !correct(all, e.Submitter) })
		})
	},
}

// correct reports whether p is one of the correct nodes all.
func correct(all []*Ordering, p ids.ID) bool {
	return slices.ContainsFunc(all, func(n *Ordering) bool { return n.id == p })
}

func orderings(nodes []simnet.Process) []*Ordering {
	var out []*Ordering
	for _, p := range nodes {
		out = append(out, p.(*Churned).Orderer.(*Ordering))
	}
	return out
}
