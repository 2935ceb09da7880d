// Package ordering implements Algorithm 6 of the paper: total ordering of
// events in a dynamic network.
//
// Participants enter and leave over time (subject to n > 3f holding in
// every round). Each protocol round r, every member broadcasts the events
// it witnessed; the events received in round r+1 become the input pairs of
// a parallel-consensus execution tagged r+1 and scoped to the membership
// snapshot S at that moment. A round r' becomes final once the current
// round r satisfies r − r' > 5|S^{r'}|/2 + 2 (the paper's worst-case
// termination bound for the round-r' execution) and the execution has
// locally terminated; the output chain is the concatenation of the final
// executions' output pairs in (round, submitter id) order. The chain
// satisfies chain-prefix (any two correct chains are prefixes of one
// another) and chain-growth (events keep being appended while correct
// nodes submit).
//
// Membership machinery: a joiner broadcasts "present"; every member
// replies (ack, r) carrying its current round; the joiner adopts the
// majority round and the ack senders as its initial S. A join announced in
// round r takes effect in round r+2 — the first round the joiner actually
// participates in — so that a membership snapshot never includes a node
// that cannot yet speak. A leaver broadcasts "absent", participates in its
// outstanding executions until they terminate, and is excluded from every
// snapshot taken after the announcement arrives.
//
// Implementation notes: events are real-valued (the paper's consensus
// works on real numbers precisely so it can order arbitrary, non-binary
// events; applications hash richer payloads to values). Executions are
// kept apart on the wire by packing (round, submitter) into the 64-bit
// instance tag — rounds in the high 16 bits, the 48-bit node id below —
// which bounds a single system run to MaxRound rounds, ample for
// simulation; no execution is started past it. A node holds only the
// executions that are not yet final, in a round-ordered window: it starts
// one per round from FirstRound until it leaves, so append order is round
// order and there are no gaps. At the end of every Step the executions at
// the head of the window that have become final are folded into the
// append-only chain and dropped, so a round costs the same however long
// the session has run, and Chain and FinalizedThrough read what was
// folded without touching an execution.
//
// The snapshot S changes only when a present or an absent arrives, so what
// depends on S alone — the member set, the census frozen over it, |S| —
// is one immutable parallelcon.Scope per membership epoch: rebuilt from
// activeFrom when it changed or a recorded activation round is reached,
// and otherwise read as is by every round's intake and shared by every
// execution started under it, whose rotor borrows its member set.
// Per execution a node pays for the execution's own node and instances,
// and an execution started with no inputs not even for that until an
// inbox names its round (see drive); per Step it asks once which rounds
// the inbox names, and counts the inbox against the scope once per epoch
// that still has an execution in flight. Folding the head of the window
// reslices it, so retiring an execution costs the same however wide the
// window is.
package ordering

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"uba/internal/census"
	"uba/internal/core/parallelcon"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// The instance-tag packing supports node ids up to maxID and protocol
// rounds up to MaxRound; round MaxRound+1 would wrap onto round 0's tags.
const (
	maxID    = ids.ID(1)<<48 - 1
	MaxRound = 1<<16 - 1
)

// ChainEntry is one totally-ordered event.
type ChainEntry struct {
	// Round is the protocol round whose execution decided the event.
	Round uint64
	// Submitter is the node that broadcast the event.
	Submitter ids.ID
	// Value is the event's value.
	Value float64
}

// String formats the entry for logs.
func (e ChainEntry) String() string {
	return fmt.Sprintf("r%d/%v=%g", e.Round, e.Submitter, e.Value)
}

// instanceTag packs a (round, submitter) pair into a wire instance id.
func instanceTag(round uint64, submitter ids.ID) uint64 {
	return round<<48 | uint64(submitter)
}

// run is one parallel-consensus execution that is not yet final, with the
// membership epoch and the network round it was started in, and whether it
// has locally terminated. An execution started with no inputs is quiet: it
// has no node until an inbox names its round (named, set by markNamed),
// and one that hears nothing by its first PR5 terminates without ever
// having one.
type run struct {
	round uint64
	scope *parallelcon.Scope
	start int
	node  *parallelcon.Node // nil while quiet
	named bool
	done  bool
}

// Node is one participant in the dynamic total-ordering protocol.
type Node struct {
	id ids.ID

	joined  bool
	joining bool
	left    bool
	leaveRq bool
	leaving bool

	r          uint64   // protocol round
	activeFrom []member // membership with activation round, in id order
	firstRun   uint64   // first execution this node participates in
	// scope is the current membership epoch: the snapshot of the round it
	// was built in, and of every round since while it is not stale — that
	// is, until activeFrom changes (dirty) or a member recorded in it
	// becomes active (round activation; 0 = none pending).
	scope      *parallelcon.Scope
	dirty      bool
	activation uint64

	pendingEvents []float64
	// window holds the executions that are not yet final, oldest first;
	// chain holds the outputs of the ones that are, through round final.
	window []run
	chain  []ChainEntry
	final  uint64
	// ranks is the rank table behind the view lent to every execution's
	// StepLocal, counted once per epoch in the window (rotor.Count).
	ranks census.Ranks
	// stepped is the network round of the last Step that drove the window.
	stepped int
}

var _ simnet.Process = (*Node)(nil)

// member is one entry of a node's membership record: a node, and the
// protocol round from which it is active.
type member struct {
	id   ids.ID
	from uint64
}

// NewFounder returns a founding member. All founders must be constructed
// with the same initial membership (the bootstrap agreement the paper's
// "initially r = 0" presumes) and added to the network before round 1.
func NewFounder(id ids.ID, initialMembers *ids.Set) (*Node, error) {
	if id > maxID {
		return nil, fmt.Errorf("ordering: id %v exceeds 48-bit instance packing", id)
	}
	n := &Node{id: id, joined: true, firstRun: 1}
	for i := range initialMembers.Len() {
		n.record(initialMembers.At(i), 0)
	}
	n.record(id, 0)
	return n, nil
}

// NewJoiner returns a node that will join an already-running system via
// the present/ack handshake. Add it to the network at the round it should
// announce itself.
func NewJoiner(id ids.ID) (*Node, error) {
	if id > maxID {
		return nil, fmt.Errorf("ordering: id %v exceeds 48-bit instance packing", id)
	}
	return &Node{id: id}, nil
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process: true once the node has left and its
// outstanding executions have terminated.
func (n *Node) Done() bool { return n.left }

// SubmitEvent queues an event value for broadcast in the node's next
// round. Each round carries at most one event per node (the paper's "v
// witnesses an event m"); extra submissions queue up.
func (n *Node) SubmitEvent(value float64) {
	n.pendingEvents = append(n.pendingEvents, value)
}

// Leave makes the node announce absence in its next round and wind down.
func (n *Node) Leave() { n.leaveRq = true }

// Round returns the node's current protocol round.
func (n *Node) Round() uint64 { return n.r }

// Members returns the node's current membership snapshot (nodes active at
// the current round), as the caller's own copy.
func (n *Node) Members() *ids.Set {
	if n.stale() {
		s, _ := n.snapshot()
		return s
	}
	return n.scope.Members().Clone()
}

// snapshot builds S for the current round from activeFrom in one
// ascending pass, and returns with it the earliest round at which a
// recorded member that is not yet active becomes so (0 if there is none).
func (n *Node) snapshot() (s *ids.Set, activation uint64) {
	s = ids.NewSet()
	for _, m := range n.activeFrom {
		if m.from <= n.r {
			s.Add(m.id)
		} else if activation == 0 || m.from < activation {
			activation = m.from
		}
	}
	return s, activation
}

// find returns where id is, or would be, in activeFrom, and whether it
// is there.
func (n *Node) find(id ids.ID) (int, bool) {
	return slices.BinarySearchFunc(n.activeFrom, id, func(m member, id ids.ID) int {
		return cmp.Compare(m.id, id)
	})
}

// record adds id to activeFrom, active from round from, unless it is
// recorded already, and reports whether it was added.
func (n *Node) record(id ids.ID, from uint64) bool {
	i, known := n.find(id)
	if !known {
		n.activeFrom = slices.Insert(n.activeFrom, i, member{id: id, from: from})
	}
	return !known
}

// stale reports whether the cached epoch is no longer the snapshot of the
// current round.
func (n *Node) stale() bool {
	return n.scope == nil || n.dirty || (n.activation != 0 && n.activation <= n.r)
}

// epoch returns the membership epoch of the current round, rebuilding the
// cached one if it is stale. A rebuild that finds the members unchanged (a
// present recorded but not yet active) keeps the epoch, so executions
// share a scope exactly while S does not change.
func (n *Node) epoch() *parallelcon.Scope {
	if n.stale() {
		var s *ids.Set
		s, n.activation = n.snapshot()
		if n.scope == nil || !n.scope.Equal(s) {
			n.scope = parallelcon.NewScope(s)
		}
		n.dirty = false
	}
	return n.scope
}

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	if n.left {
		return
	}
	if !n.joined {
		n.stepJoin(env)
		return
	}
	n.r++

	// Membership and event intake.
	type eventIn struct {
		submitter ids.ID
		value     float64
	}
	var intake []eventIn
	scope := n.epoch()
	for m := range env.Inbox.All() {
		switch p := m.Payload.(type) {
		case wire.Present:
			// Joiner announced in round r participates from r+2.
			if n.record(m.From, n.r+2) {
				n.dirty = true
				env.Send(m.From, wire.Ack{Round: n.r})
			}
		case wire.Absent:
			if i, known := n.find(m.From); known {
				n.activeFrom = slices.Delete(n.activeFrom, i, i+1)
				n.dirty = true
			}
		case wire.Event:
			if p.Round == n.r-1 && scope.Contains(m.From) && len(p.Body) == 8 {
				value := math.Float64frombits(binary.LittleEndian.Uint64(p.Body))
				if !math.IsNaN(value) {
					intake = append(intake, eventIn{submitter: m.From, value: value})
				}
			}
		}
	}

	if n.leaveRq && !n.leaving {
		env.Broadcast(wire.Absent{})
		n.leaving = true
	}

	// Broadcast this round's own event, if any and not leaving.
	if !n.leaving && len(n.pendingEvents) > 0 {
		value := n.pendingEvents[0]
		n.pendingEvents = n.pendingEvents[1:]
		body := binary.LittleEndian.AppendUint64(nil, math.Float64bits(value))
		env.Broadcast(wire.Event{Round: n.r, Body: body})
	}

	// Start execution r with the intake pairs, scoped to the snapshot,
	// unless the node is winding down or the tag space is used up.
	if !n.leaving && n.r <= MaxRound {
		rn := run{round: n.r, scope: scope, start: env.Round}
		if len(intake) > 0 {
			// Inputs go in by submitter, and of a submitter that sent
			// several events for one round (only a Byzantine one does) the
			// last in inbox order is the input: the inbox is sorted by
			// sender, then encoding, so that is the event with the greatest
			// encoding — the tie-break an equivocating coordinator gets. The
			// sort is stable and finds the intake already in order.
			slices.SortStableFunc(intake, func(a, b eventIn) int { return cmp.Compare(a.submitter, b.submitter) })
			inputs := make([]parallelcon.InputPair, 0, len(intake))
			for _, e := range intake {
				inputs = append(inputs, parallelcon.InputPair{
					Instance: instanceTag(n.r, e.submitter),
					X:        wire.V(e.value),
				})
			}
			rn.node = n.execution(rn, inputs)
		}
		n.window = append(n.window, rn)
	}

	if n.drive(env) && n.leaving {
		n.left = true
	}
	n.foldFinal()
}

// execution builds the parallel-consensus node of rn with inputs. Its
// instances are the tags of rn's round, whose range runs to the first tag
// of the next round (to 0, unbounded, past MaxRound, where no tag is).
func (n *Node) execution(rn run, inputs []parallelcon.InputPair) *parallelcon.Node {
	return parallelcon.New(n.id, inputs, parallelcon.Options{
		Scope:         rn.scope,
		StartRound:    rn.start,
		RotorInstance: instanceTag(rn.round, 0),
		Instances:     parallelcon.InstanceRange{From: instanceTag(rn.round, 0), To: instanceTag(rn.round+1, 0)},
	})
}

// drive steps every in-flight execution with one round's inbox (one that
// terminated is waiting out its finality lag) and reports whether all of
// them have terminated. The window is in round order and so in epoch
// order: the inbox is counted against the scope once per epoch
// (rotor.Count), and the view serves the executions of that epoch in a
// row.
//
// A quiet execution is built the first time an inbox names its round and
// first replays, on empty inboxes, the rounds it lived as a record. That
// is the state it would have reached built at its start: every inbox read
// of an execution is filtered by its own tags, none of the inboxes it
// missed carried one, and an execution that has joined no instance sends
// nothing on an empty inbox (the replay asserts it). A node that was not stepped
// in some round (a crash it recovered from) builds every quiet execution
// at once, so that each replays the rounds it was stepped in and no other.
func (n *Node) drive(env *simnet.RoundEnv) (allDone bool) {
	round, inbox := env.Round, env.Inbox
	allDone = true
	if len(n.window) > 0 {
		n.markNamed(inbox)
	}
	missed := round != n.stepped+1
	var laid *parallelcon.Scope
	var view rotor.View
	for i := range n.window {
		rn := &n.window[i]
		if rn.done {
			continue
		}
		if rn.node == nil {
			if !rn.named && !missed {
				// Its first PR5 ends an execution that joined nothing.
				rn.done = round-rn.start+1 == 5
				allDone = allDone && rn.done
				continue
			}
			rn.node = n.execution(*rn, nil)
			quiet := rotor.Count(simnet.Inbox{}, rn.scope.Members(), &n.ranks)
			var replay simnet.RoundEnv
			for r := rn.start; r <= n.stepped; r++ {
				rn.node.StepLocal(r, simnet.Inbox{}, quiet, &replay)
			}
			if replay.SendCount() != 0 {
				panic(fmt.Sprintf("ordering: a quiet execution sent %v while catching up", replay.Sent()))
			}
			laid = nil
		}
		if rn.scope != laid {
			view = rotor.Count(inbox, rn.scope.Members(), &n.ranks)
			laid = rn.scope
		}
		rn.node.StepLocal(round, inbox, view, env)
		rn.done = rn.node.Done()
		allDone = allDone && rn.done
	}
	n.stepped = round
	return allDone
}

// markNamed marks every quiet execution of the window whose round some
// payload of inbox names, in one pass over the shared block's payloads and
// the private messages, from anyone: an instance tag carries its round in
// the high 16 bits, and the window holds consecutive rounds from its head.
func (n *Node) markNamed(inbox simnet.Inbox) {
	head := n.window[0].round
	mark := func(p wire.Payload) {
		tagged, ok := p.(wire.Instanced)
		if !ok {
			return
		}
		if k := tagged.InstanceID()>>48 - head; k < uint64(len(n.window)) && n.window[k].node == nil {
			n.window[k].named = true
		}
	}
	said, direct := inbox.Said(), inbox.Direct()
	for i := range said {
		mark(said[i].Payload)
	}
	for i := range direct {
		mark(direct[i].Payload)
	}
}

// foldFinal moves the executions that became final this round from the
// head of the window into the chain. Execution r' is final at round r once
// it has locally terminated and r − r' > 5|S^{r'}|/2 + 2, the paper's
// worst-case termination bound for it; finality is claimed in round order,
// so an execution behind a non-final one waits. Both conditions change
// only inside Step, which is why folding here is all the readers need.
func (n *Node) foldFinal() {
	k := 0
	for ; k < len(n.window); k++ {
		rn := &n.window[k]
		if !rn.done || 2*(n.r-rn.round) <= uint64(5*rn.scope.N()+4) {
			break
		}
		if rn.node != nil {
			for _, pair := range rn.node.Outputs() {
				n.chain = append(n.chain, ChainEntry{
					Round:     rn.round,
					Submitter: ids.ID(pair.Instance & uint64(maxID)),
					Value:     pair.X.X,
				})
			}
		}
		n.final = rn.round
	}
	// The live runs move to the front of the one backing array, so the
	// window's appends reuse it instead of reallocating as its head
	// advances.
	if k > 0 {
		live := copy(n.window, n.window[k:])
		clear(n.window[live:])
		n.window = n.window[:live]
	}
}

// stepJoin drives the present/ack handshake.
func (n *Node) stepJoin(env *simnet.RoundEnv) {
	if !n.joining {
		env.Broadcast(wire.Present{})
		n.joining = true
		return
	}
	// Collect acks, adopt the majority round, and the senders as S.
	counts := make(map[uint64]int)
	senders := ids.NewSet()
	for m := range env.Inbox.All() {
		if ack, ok := m.Payload.(wire.Ack); ok {
			counts[ack.Round]++
			senders.Add(m.From)
		}
	}
	if len(counts) == 0 {
		// No acks yet (e.g. announced into an empty round); re-announce.
		env.Broadcast(wire.Present{})
		return
	}
	var majority uint64
	best := -1
	for round, count := range counts {
		if count > best || (count == best && round < majority) {
			majority, best = round, count
		}
	}
	n.r = majority + 1
	for i := range senders.Len() {
		n.record(senders.At(i), 0)
	}
	n.record(n.id, 0)
	n.joined = true
	n.firstRun = n.r + 1
	// Participation begins next round (protocol round r+1), matching the
	// activation round the members recorded.
}

// FirstRound returns the first execution round this node participates in.
func (n *Node) FirstRound() uint64 { return n.firstRun }

// Chain returns a copy of the node's current totally-ordered event chain:
// the outputs of all executions up to the largest R such that every
// execution in [FirstRound, R] is final, ordered by round and then
// submitter id.
func (n *Node) Chain() []ChainEntry { return slices.Clone(n.chain) }

// ChainLen returns the length of the chain.
func (n *Node) ChainLen() int { return len(n.chain) }

// Entries yields the chain by position without copying: the read-only
// path of Chain, for callers that look and do not keep.
func (n *Node) Entries(yield func(int, ChainEntry) bool) {
	for i, e := range n.chain {
		if !yield(i, e) {
			return
		}
	}
}

// FinalizedThrough returns the largest round R such that all executions in
// [FirstRound, R] are final (0 if none).
func (n *Node) FinalizedThrough() uint64 { return n.final }
