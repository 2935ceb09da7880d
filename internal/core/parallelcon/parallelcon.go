// Package parallelcon implements Algorithm 5 of the paper:
// EarlyConsensus(id) and the ParallelConsensus protocol built from it.
//
// Parallel consensus agrees on a *set* of (instance-id, opinion) pairs
// when the correct nodes do not initially agree on which instances exist:
// every correct node starts EarlyConsensus(id) for each of its own input
// pairs, and joins instances it first hears about during the joinable
// windows of the first phase, each the round such a message arrives in
// (an id:input in its second round, PR2; an id:prefer or its marker in
// the third, PR3; an id:strongprefer or its marker in the fourth, PR4).
// First contact outside those windows — in particular anything first
// heard in the second phase — is discarded, so a Byzantine node cannot
// spawn instances late.
//
// Properties (Theorem 5): validity (a pair (id, x), x ≠ ⊥, input at every
// correct node is output by every correct node), agreement (any pair
// output by one correct node is output by all), and termination in O(f)
// rounds. Pairs that decide the distinguished opinion ⊥ are never output
// — that is how instances no correct node vouched for vanish.
//
// Message accounting follows the paper's caption rules:
//
//   - a node aware of an instance that lacks an input/prefer quorum sends
//     id:nopreference / id:nostrongpreference markers, so other nodes do
//     not substitute an opinion for it;
//   - the first time a message family is received for an instance, every
//     censused node that sent nothing of that family is assumed to have
//     sent ⊥;
//   - afterwards, a censused node missing from a family's round is
//     assumed to have sent whatever this node itself sent most recently
//     for that family (⊥ if it never sent one).
//
// The five-round phase grid and the shared rotor-coordinator are exactly
// those of Algorithm 3; coordinator opinions are broadcast per instance.
//
// The package is reused by the dynamic total-ordering protocol
// (Algorithm 6), which runs many parallel-consensus executions
// concurrently: Options.Scope scopes a run to a membership snapshot
// (skipping the two initialization rounds), Options.StartRound offsets the
// phase grid, Options.Instances separates the executions' message
// namespaces by an instance-id range, and StepLocal lets an embedding
// protocol drive the run inside its own Step. What depends only on the
// snapshot — its census, whose member set is also the rotor's initial
// candidates — is built once per snapshot (NewScope) and shared by every
// run started under it: the rotor core borrows the census's member set as
// C_v and copies it only if a candidate is accepted. A run pays for its own instances and nothing
// per member; one with no inputs allocates its node and nothing else until
// it joins an instance.
package parallelcon

import (
	"cmp"
	"slices"

	"uba/internal/census"
	"uba/internal/core/consensus"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// InputPair is one (instance id, opinion) input.
type InputPair struct {
	Instance uint64
	X        wire.Value
}

// OutputPair is one decided (instance id, opinion) pair with x ≠ ⊥.
type OutputPair struct {
	Instance uint64
	X        wire.Value
}

// Scope is a membership snapshot S prepared for any number of runs: the
// census frozen over S, whose members in id order are S itself, a
// member's rank being its position in that order. It is immutable once
// built, which is what lets the runs of one node share it; a node builds
// its own, so it never crosses nodes. Members borrows S: the caller reads
// it (to count an inbox against it, say) and must not change it.
type Scope struct {
	census.Census
}

// NewScope prepares the snapshot members, which it seals and shares
// (census.Of): the caller must not write members again.
func NewScope(members *ids.Set) *Scope {
	return &Scope{census.Of(members)}
}

// Equal reports whether S is exactly members.
func (s *Scope) Equal(members *ids.Set) bool { return s.Members().Equal(members) }

// Options configures a parallel-consensus run.
type Options struct {
	// Scope, when non-nil, scopes the run to a known membership
	// snapshot: the census is the scope's and the rotor candidate set
	// starts as its member set, borrowed until a candidate is accepted,
	// skipping the two initialization rounds
	// (used by the dynamic-network protocols, which know S when they
	// start a run). When nil, the run performs the standard init rounds.
	Scope *Scope
	// StartRound is the network round at which this run begins
	// (default 1). The phase grid is laid out relative to it.
	StartRound int
	// RotorInstance tags the run's rotor candidate echoes so that
	// concurrent runs do not mix coordinators.
	RotorInstance uint64
	// Instances is the range of instance ids that belong to this run (the
	// zero value accepts all). Concurrent runs partition the instance
	// space.
	Instances InstanceRange
}

// InstanceRange is the half-open range [From, To) of instance ids, To = 0
// leaving it unbounded above: the zero value holds every id.
type InstanceRange struct{ From, To uint64 }

// contains reports whether id is in the range.
func (r InstanceRange) contains(id uint64) bool {
	return id >= r.From && (r.To == 0 || id < r.To)
}

// instance is the per-EarlyConsensus(id) state.
type instance struct {
	id uint64
	x  wire.Value

	// Per tallied kind, indexed by wire.BallotSlot.
	seenFamily [wire.BallotKinds]bool
	lastSent   [wire.BallotKinds]wire.Value
	hasSent    [wire.BallotKinds]bool

	// storedSP is the strongprefer tally taken at PR4, resolved at PR5,
	// reset and refilled in place.
	storedSP wire.Tally

	decided  bool
	output   wire.Value
	hasOut   bool
	decRound int
}

// sent records the node's own ballot of the given kind, for the
// substitution rule; silent records that it sent none this phase.
func (ins *instance) sent(kind wire.Kind, x wire.Value) {
	ins.lastSent[wire.BallotSlot(kind)] = x
	ins.hasSent[wire.BallotSlot(kind)] = true
}

func (ins *instance) silent(kind wire.Kind) { ins.hasSent[wire.BallotSlot(kind)] = false }

// Node is one correct parallel-consensus participant.
type Node struct {
	id   ids.ID
	opts Options

	cen    census.Census
	frozen census.Census // empty until the census is fixed

	// present marks the census ranks heard from in the tally under way;
	// reused from one tally to the next. ranks is the rank table Step
	// counts its inbox with (rotor.Count) for StepLocal; an embedding
	// protocol counts with its own instead.
	present census.Marks
	ranks   census.Ranks
	// votes is the tally of PR2 and PR3, reset and refilled for every
	// instance.
	votes wire.Tally

	core rotor.Core

	// inst looks an instance up by id; order holds the same instances
	// ascending by id, the order every phase round sends, tallies and
	// outputs in. Both grow only through join, and inst is allocated by the
	// first. ignored holds the ids first heard outside a joinable window,
	// which are never joined; it is allocated by the first of them.
	inst    map[uint64]*instance
	order   []*instance
	ignored map[uint64]struct{}

	phasesRun int
	done      bool
}

var _ simnet.Process = (*Node)(nil)

// New returns a participant with the given input pairs.
func New(id ids.ID, inputs []InputPair, opts Options) *Node {
	if opts.StartRound <= 0 {
		opts.StartRound = 1
	}
	n := &Node{id: id, opts: opts, core: *rotor.NewCore(opts.RotorInstance)}
	n.core.SetCycling(true)
	for _, in := range inputs {
		n.AddInput(in)
	}
	if opts.Scope != nil {
		n.frozen = opts.Scope.Census
		n.core.SeedCandidates(opts.Scope.Members())
	}
	return n
}

// AddInput registers an additional input pair. It is only meaningful
// before the run's first phase round executes (embedding protocols that
// learn their inputs during initialization — e.g. interactive
// consistency, which disseminates values in round 1 and fixes pairs in
// round 2 — use it the way terminating reliable broadcast uses
// consensus.SetInput).
func (n *Node) AddInput(pair InputPair) {
	if ins, ok := n.inst[pair.Instance]; ok {
		ins.x = pair.X
		return
	}
	n.join(pair.Instance, pair.X)
}

// join makes the node aware of an instance it does not know yet, at its
// place in id order.
func (n *Node) join(id uint64, x wire.Value) {
	ins := &instance{id: id, x: x}
	if n.inst == nil {
		n.inst = make(map[uint64]*instance)
	}
	n.inst[id] = ins
	at, _ := slices.BinarySearchFunc(n.order, id, func(ins *instance, id uint64) int {
		return cmp.Compare(ins.id, id)
	})
	n.order = slices.Insert(n.order, at, ins)
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.done }

// Outputs returns the decided non-⊥ pairs, ascending by instance id.
func (n *Node) Outputs() []OutputPair {
	out := make([]OutputPair, 0, len(n.order))
	for _, ins := range n.order {
		if ins.decided && ins.hasOut {
			out = append(out, OutputPair{Instance: ins.id, X: ins.output})
		}
	}
	return out
}

// DecisionRound returns the round in which the given instance decided
// (0 if unknown or undecided).
func (n *Node) DecisionRound(instanceID uint64) int {
	if ins, ok := n.inst[instanceID]; ok && ins.decided {
		return ins.decRound
	}
	return 0
}

// Aware reports whether the node ever joined the instance.
func (n *Node) Aware(instanceID uint64) bool {
	_, ok := n.inst[instanceID]
	return ok
}

// Phases returns the number of completed phases.
func (n *Node) Phases() int { return n.phasesRun }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	n.StepLocal(env.Round, &env.Inbox, rotor.Count(&env.Inbox, n.frozen.Members(), &n.ranks), env)
}

// StepLocal runs one round of the protocol and broadcasts what it sends
// on env. Embedding protocols (total ordering) call it directly with the
// round and inbox of their own Step, and their env. view is the inbox
// counted against the run's census, which the caller does before the
// call (rotor.Count over Scope.Members for a scoped run): it depends on
// the census and the inbox only, so a protocol that steps dozens of runs
// of one Scope at once counts once and lends the view to them all.
func (n *Node) StepLocal(round int, inbox *simnet.Inbox, view rotor.View, env *simnet.RoundEnv) {
	if n.done {
		return
	}
	local := round - n.opts.StartRound + 1
	if local < 1 {
		return
	}

	var loopLocal int
	if n.opts.Scope == nil {
		switch local {
		case 1:
			rotor.ObserveSenders(&n.cen, inbox)
			n.core.BroadcastInit(env)
			return
		case 2:
			rotor.ObserveSenders(&n.cen, inbox)
			n.core.EchoInits(inbox, env)
			n.frozen = n.cen
			return
		}
		loopLocal = local - 3
	} else {
		loopLocal = local - 1
	}

	n.core.NoteInbox(inbox, view)
	pr := loopLocal % 5
	phase := loopLocal / 5

	n.scanAwareness(inbox, phase, pr)

	switch pr {
	case 0: // PR1: broadcast id:input(x) for every live instance with x ≠ ⊥
		for _, ins := range n.order {
			if ins.decided {
				continue
			}
			if ins.x.IsBot {
				// No opinion to vouch for: stay silent this round
				// and fill missing senders with ⊥ next round.
				ins.silent(wire.KindInput)
				continue
			}
			env.Broadcast(wire.Input{Instance: ins.id, X: ins.x})
			ins.sent(wire.KindInput, ins.x)
		}
	case 1: // PR2: tally inputs; prefer or nopreference
		for _, ins := range n.order {
			if ins.decided {
				continue
			}
			v, count := n.tally(ins, &n.votes, inbox, view, wire.KindInput).Best()
			if census.AtLeastTwoThirds(count, n.frozen.N()) {
				env.Broadcast(wire.Prefer{Instance: ins.id, X: v})
				ins.sent(wire.KindPrefer, v)
			} else {
				env.Broadcast(wire.NoPreference{Instance: ins.id})
				ins.silent(wire.KindPrefer)
			}
		}
	case 2: // PR3: tally prefers; adopt at n_v/3; strongprefer at 2n_v/3
		for _, ins := range n.order {
			if ins.decided {
				continue
			}
			v, count := n.tally(ins, &n.votes, inbox, view, wire.KindPrefer).Best()
			if census.AtLeastThird(count, n.frozen.N()) {
				ins.x = v
			}
			if census.AtLeastTwoThirds(count, n.frozen.N()) {
				env.Broadcast(wire.StrongPrefer{Instance: ins.id, X: v})
				ins.sent(wire.KindStrongPrefer, v)
			} else {
				env.Broadcast(wire.NoStrongPreference{Instance: ins.id})
				ins.silent(wire.KindStrongPrefer)
			}
		}
	case 3: // PR4: store strongprefer tallies; run the shared rotor round
		for _, ins := range n.order {
			if ins.decided {
				continue
			}
			n.tally(ins, &ins.storedSP, inbox, view, wire.KindStrongPrefer)
		}
		if n.core.LoopRound(n.frozen.N(), env).Coordinator == n.id {
			for _, ins := range n.order {
				if ins.decided {
					continue
				}
				env.Broadcast(wire.Opinion{Instance: ins.id, X: ins.x})
			}
		}
	case 4: // PR5: resolve per instance against the coordinator's opinion
		n.core.Opinions(inbox, view, func(op wire.Opinion) {
			if ins, ok := n.inst[op.Instance]; ok && !ins.decided {
				if _, count := ins.storedSP.Best(); census.LessThanThird(count, n.frozen.N()) {
					ins.x = op.X
				}
			}
		})
		for _, ins := range n.order {
			if ins.decided {
				continue
			}
			v, count := ins.storedSP.Best()
			if census.AtLeastTwoThirds(count, n.frozen.N()) {
				ins.decided = true
				ins.decRound = round
				if !v.IsBot {
					ins.output = v
					ins.hasOut = true
				}
			}
			ins.storedSP.Reset()
		}
		n.phasesRun = phase + 1
		if n.allDecided() {
			n.done = true
		}
	}
}

func (n *Node) allDecided() bool {
	for _, ins := range n.order {
		if !ins.decided {
			return false
		}
	}
	return true
}

// scanAwareness joins instances first heard during the joinable windows of
// the first phase and permanently ignores everything else. Which instances
// an inbox names that this node has not met is a question about payloads,
// asked once per distinct broadcast payload and per private message; only
// if there are some is first contact the ordered question it is — the
// first message in inbox order that names the instance decides — and the
// merged inbox walked, until every instance it names has been met.
func (n *Node) scanAwareness(inbox *simnet.Inbox, phase, pr int) {
	unmet := n.unmetInstances(inbox)
	if unmet == 0 {
		return
	}
	for m := range inbox.All() {
		iid, ok := n.newInstance(m.Payload)
		if !ok || !n.frozen.Contains(m.From) {
			continue
		}
		joinable := false
		if phase == 0 {
			switch m.Payload.(type) {
			case wire.Input:
				joinable = pr == 1
			case wire.Prefer, wire.NoPreference:
				joinable = pr == 2
			case wire.StrongPrefer, wire.NoStrongPreference:
				joinable = pr == 3
			}
		}
		if joinable {
			n.join(iid, wire.Bot())
		} else {
			if n.ignored == nil {
				n.ignored = make(map[uint64]struct{})
			}
			n.ignored[iid] = struct{}{}
		}
		if unmet--; unmet == 0 {
			return
		}
	}
}

// newInstance reports whether p names an instance of this run that the
// node has neither joined nor ignored, and which.
func (n *Node) newInstance(p wire.Payload) (uint64, bool) {
	tagged, ok := p.(wire.Instanced)
	if !ok {
		return 0, false
	}
	iid := tagged.InstanceID()
	if !n.opts.Instances.contains(iid) {
		return 0, false
	}
	if _, known := n.inst[iid]; known {
		return 0, false
	}
	if _, ign := n.ignored[iid]; ign {
		return 0, false
	}
	return iid, true
}

// unmetInstances counts the distinct instances that payloads of inbox, from
// anyone, name and newInstance would report: each message of the walk that
// meets one leaves one fewer, so the walk ends when none is left.
func (n *Node) unmetInstances(inbox *simnet.Inbox) int {
	var buf [16]uint64 // an inbox meets a few instances at a time: no allocation
	unmet := buf[:0]
	note := func(p wire.Payload) {
		// Payloads of one instance are mostly neighbours (the block is in
		// encoding order), so a repeat of the last one is not kept.
		if iid, ok := n.newInstance(p); ok && (len(unmet) == 0 || unmet[len(unmet)-1] != iid) {
			unmet = append(unmet, iid)
		}
	}
	said, direct := inbox.Said(), inbox.Direct()
	for i := range said {
		note(said[i].Payload)
	}
	for i := range direct {
		note(direct[i].Payload)
	}
	slices.Sort(unmet)
	return len(slices.Compact(unmet))
}

// tally counts one message family for one instance into t, which it
// empties first, applying the paper's substitution rules, and returns t.
// Marker messages (nopreference/nostrongpreference) count their sender
// as present without contributing an opinion.
func (n *Node) tally(ins *instance, t *wire.Tally, inbox *simnet.Inbox, view rotor.View, kind wire.Kind) *wire.Tally {
	t.Reset()
	n.present = n.present.Cleared(n.frozen.N())
	consensus.Ballots(inbox, view, kind, ins.id, n.present, t)

	// Substitution for censused nodes that sent nothing of this family:
	// ⊥ on first receipt of the family, own most recent message of the
	// family afterwards (⊥ if never sent).
	fam := wire.BallotSlot(kind)
	fill := wire.Bot()
	if ins.seenFamily[fam] && ins.hasSent[fam] {
		fill = ins.lastSent[fam]
	}
	heard := n.present.Count()
	if missing := n.frozen.N() - heard; missing > 0 {
		t.Add(fill, missing)
	}
	if heard > 0 {
		ins.seenFamily[fam] = true
	}
	return t
}
