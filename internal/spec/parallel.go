package spec

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Pair is an (instance, opinion) pair of Algorithm 5: an input, or an
// output with an opinion other than ⊥.
type Pair struct {
	Instance uint64
	X        wire.Value
}

// early is one node's EarlyConsensus(id): Algorithm 3 for one instance.
type early struct {
	x       wire.Value
	seen    map[wire.Kind]bool       // the families it has received
	own     map[wire.Kind]wire.Value // the node's last ballot of each kind
	sp      count
	decided int // the round it decided in, 0 before
	output  wire.Value
}

// ParallelConsensus is Algorithm 5 at one correct node: EarlyConsensus(id)
// for each of its input pairs and for each instance it first hears of in
// a joinable window of the first phase, on one phase grid and one rotor.
// Where Algorithm 3 substitutes, Algorithm 5 counts ⊥ for the members
// missing from the first round a family is received in, and afterwards
// the node's own last ballot of the family, ⊥ if it sent none; a node
// without an opinion sends no input. Pairs that decide ⊥ are not output.
type ParallelConsensus struct {
	node
	rotor     *RotorCore
	instances map[uint64]*early
	ignored   map[uint64]bool
	contacts  int // the instances joined by first contact
	phases    int
	done      bool
	start     int    // the round of PR1 of the first phase
	from, to  uint64 // the instances it runs, [from, to)
}

// NewParallelConsensus returns a node of Algorithm 5 with inputs.
func NewParallelConsensus(id ids.ID, inputs []Pair) *ParallelConsensus {
	n := &ParallelConsensus{node: node{id, heard{}}, rotor: NewRotorCore(0, true), start: 3, to: math.MaxUint64,
		instances: map[uint64]*early{}, ignored: map[uint64]bool{}}
	for _, in := range inputs {
		n.input(in)
	}
	return n
}

// Scoped is execution Round of Algorithm 5 that Algorithm 6 starts,
// scoped to its census S: S is known at its start, so it has no
// initialization rounds and its rotor's candidates start as S. Start is
// the network round of its first PR1. It runs the instances of
// (Round, submitter), and its rotor runs under (Round, 0).
type Scoped struct {
	S     []ids.ID
	Start int
	Round uint64
}

// NewScopedParallelConsensus returns a node of an execution of Algorithm
// 5 scoped by sc, with inputs.
func NewScopedParallelConsensus(id ids.ID, inputs []Pair, sc Scoped) *ParallelConsensus {
	n := NewParallelConsensus(id, inputs)
	n.rotor, n.start = NewRotorCore(tag(sc.Round, 0), true), sc.Start
	n.from, n.to = tag(sc.Round, 0), tag(sc.Round+1, 0)
	for _, p := range sc.S {
		n.heard[p], n.rotor.candidates[p] = true, true
	}
	return n
}

// input makes x the node's opinion on instance, joining it if need be.
func (n *ParallelConsensus) input(in Pair) {
	if ins := n.instances[in.Instance]; ins != nil {
		ins.x = in.X
		return
	}
	n.instances[in.Instance] = &early{x: in.X, seen: map[wire.Kind]bool{}, own: map[wire.Kind]wire.Value{}}
}

// Done implements simnet.Process.
func (n *ParallelConsensus) Done() bool { return n.done }

// Step implements simnet.Process.
func (n *ParallelConsensus) Step(env *simnet.RoundEnv) {
	if env.Round < n.start {
		n.initRound(env) // a scoped execution is not stepped before its start
		return
	}
	member := func(p ids.ID) bool { return n.heard[p] }
	nv := len(n.heard)
	n.rotor.Note(env.Inbox, member)
	phase, pr := (env.Round-n.start)/5, (env.Round-n.start)%5
	join, ignore := FirstContact(env.Inbox, phase, pr, member, func(id uint64) bool {
		return n.instances[id] != nil || n.ignored[id] || id < n.from || id >= n.to
	})
	for _, id := range join {
		n.input(Pair{id, wire.Bot()})
	}
	for _, id := range ignore {
		n.ignored[id] = true
	}
	n.contacts += len(join)
	var live []uint64 // the undecided instances, ascending
	for _, id := range slices.Sorted(maps.Keys(n.instances)) {
		if n.instances[id].decided == 0 {
			live = append(live, id)
		}
	}
	tallied := func(id uint64, kind wire.Kind) count {
		ins := n.instances[id]
		fill, ok := ins.own[kind]
		if !ins.seen[kind] || !ok {
			fill = wire.Bot()
		}
		b, present := tally(env.Inbox, n.heard, kind, id, fill, true)
		ins.seen[kind] = ins.seen[kind] || present > 0
		return b
	}
	for _, id := range live {
		ins := n.instances[id]
		switch pr {
		case 0: // PR1: an input, unless the node has no opinion
			if ins.x.IsBot {
				delete(ins.own, wire.KindInput)
			} else {
				env.Broadcast(wire.Input{Instance: id, X: ins.x})
				ins.own[wire.KindInput] = ins.x
			}
		case 1: // PR2: prefer the value of 2n_v/3 inputs
			if b := tallied(id, wire.KindInput); 3*b.c >= 2*nv {
				env.Broadcast(wire.Prefer{Instance: id, X: b.x})
				ins.own[wire.KindPrefer] = b.x
			} else {
				env.Broadcast(wire.NoPreference{Instance: id})
				delete(ins.own, wire.KindPrefer)
			}
		case 2: // PR3: adopt the value of n_v/3 prefers, strongprefer it at 2n_v/3
			b := tallied(id, wire.KindPrefer)
			if 3*b.c >= nv {
				ins.x = b.x
			}
			if 3*b.c >= 2*nv {
				env.Broadcast(wire.StrongPrefer{Instance: id, X: b.x})
				ins.own[wire.KindStrongPrefer] = b.x
			} else {
				env.Broadcast(wire.NoStrongPreference{Instance: id})
				delete(ins.own, wire.KindStrongPrefer)
			}
		case 3: // PR4: keep the strongprefer tally
			ins.sp = tallied(id, wire.KindStrongPrefer)
		}
	}
	switch pr {
	case 3: // PR4: one rotor round; a selected node states every opinion
		if n.rotor.LoopRound(nv, env.Broadcast).Coordinator == n.id {
			for _, id := range live {
				env.Broadcast(wire.Opinion{Instance: id, X: n.instances[id].x})
			}
		}
	case 4: // PR5: below n_v/3 strongprefers take the coordinator's opinion; decide at 2n_v/3
		opinions := n.rotor.Opinions(env.Inbox, member)
		for _, id := range live {
			ins := n.instances[id]
			if x, ok := opinions[id]; ok && 3*ins.sp.c < nv {
				ins.x = x
			}
			if 3*ins.sp.c >= 2*nv {
				ins.decided, ins.output = env.Round, ins.sp.x
			}
		}
		n.phases = phase + 1
		n.done = true
		for _, ins := range n.instances {
			n.done = n.done && ins.decided != 0
		}
	}
}

// FirstContact is Algorithm 5's rule for the instances an inbox names
// that a node has not met: the first census member in inbox order whose
// message names one decides it. The instance is joined if that message is
// of the family the first phase admits in this round — an input at PR2, a
// prefer or its marker at PR3, a strongprefer or its marker at PR4 (pr 1,
// 2 and 3) — and ignored for good otherwise. member says who is in the
// census; met, which instances the node has joined, has ignored, or does
// not run.
func FirstContact(inbox simnet.Inbox, phase, pr int, member func(ids.ID) bool, met func(uint64) bool) (join, ignore []uint64) {
	decided := map[uint64]bool{}
	for m := range inbox.All() {
		named, ok := m.Payload.(wire.Instanced)
		if !ok || !member(m.From) || met(named.InstanceID()) || decided[named.InstanceID()] {
			continue
		}
		id, window := named.InstanceID(), -1
		switch m.Payload.(type) {
		case wire.Input:
			window = 1
		case wire.Prefer, wire.NoPreference:
			window = 2
		case wire.StrongPrefer, wire.NoStrongPreference:
			window = 3
		}
		decided[id] = true
		if phase == 0 && pr == window {
			join = append(join, id)
		} else {
			ignore = append(ignore, id)
		}
	}
	return join, ignore
}

// Outcome returns every instance the node joined, ascending, with the
// round it decided in (0: undecided), its output pairs, and the phases it
// ran, as []any.
func (n *ParallelConsensus) Outcome() any {
	var joined [][2]uint64
	for _, id := range slices.Sorted(maps.Keys(n.instances)) {
		joined = append(joined, [2]uint64{id, uint64(n.instances[id].decided)})
	}
	return []any{joined, n.Outputs(), n.phases}
}

// Outputs returns the decided pairs whose opinion is not ⊥, ascending.
func (n *ParallelConsensus) Outputs() []Pair {
	var out []Pair
	for _, id := range slices.Sorted(maps.Keys(n.instances)) {
		if ins := n.instances[id]; ins.decided != 0 && !ins.output.IsBot {
			out = append(out, Pair{id, ins.output})
		}
	}
	return out
}

// Vector is interactive consistency at one correct node: in round 1 it
// broadcasts its value, in round 2 every 8-byte, non-NaN value a node
// sent it (of several, the last in inbox order) becomes the input pair of
// that node's slot, and Algorithm 5 decides the slots.
type Vector struct {
	*ParallelConsensus
	value float64
}

// NewVector returns a node contributing value.
func NewVector(id ids.ID, value float64) *Vector {
	return &Vector{ParallelConsensus: NewParallelConsensus(id, nil), value: value}
}

// contribution is value as a slot's contribution on the wire.
func contribution(value float64) wire.Event {
	return wire.Event{Body: binary.LittleEndian.AppendUint64(nil, math.Float64bits(value))}
}

// value is the value an event carries: 8 bytes that are not NaN.
func value(ev wire.Event) (float64, bool) {
	if len(ev.Body) != 8 {
		return 0, false
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(ev.Body))
	return x, !math.IsNaN(x)
}

// Step implements simnet.Process.
func (n *Vector) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		env.Broadcast(contribution(n.value))
	case 2:
		for m := range env.Inbox.All() {
			if ev, ok := m.Payload.(wire.Event); ok && ev.Round == 0 {
				if x, ok := value(ev); ok {
					n.input(Pair{uint64(m.From), wire.V(x)})
				}
			}
		}
	}
	n.ParallelConsensus.Step(env)
}

// Outcome returns the agreed vector: each slot's node and value, by id.
func (n *Vector) Outcome() any {
	var out []Slot
	for _, p := range n.Outputs() {
		out = append(out, Slot{ids.ID(p.Instance), p.X.X})
	}
	return out
}

// Slot is one agreed slot of the vector.
type Slot struct {
	Node  ids.ID
	Value float64
}

func (n *ParallelConsensus) parallel() *ParallelConsensus { return n }

// Contacted reports whether, in a run of Algorithm 5 or of interactive
// consistency, a node joined an instance by first contact, a node
// ignored one — other than 0, the tag of the rotor's echoes, which every
// node ignores in the first loop round — and a node output a pair.
func Contacted(nodes []simnet.Process) bool {
	joined, ignored, output := false, false, false
	for _, p := range nodes {
		n := p.(interface{ parallel() *ParallelConsensus }).parallel()
		joined, output = joined || n.contacts > 0, output || len(n.Outputs()) > 0
		ignored = ignored || len(n.ignored) > 1 || len(n.ignored) == 1 && !n.ignored[0]
	}
	return joined && ignored && output
}
