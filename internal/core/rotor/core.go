// Package rotor implements Algorithm 2 of the paper: the
// rotor-coordinator in the id-only model.
//
// The rotor-coordinator gives the correct nodes a sequence of common
// coordinators such that, before any correct node terminates, there is at
// least one "good round" — a round in which every correct node selected
// the same, correct coordinator and accepted its opinion. With known f and
// consecutive identifiers this is trivial (rotate through ids 1..f+1);
// with unknown n, f and sparse identifiers it is the paper's key technical
// device.
//
// Every node reliably-broadcasts its candidacy (init/echo), maintains a
// candidate set C_v in reliable-broadcast fashion, selects C_v[r mod |C_v|]
// as round r's coordinator, and terminates upon reselecting a node it has
// selected before. The counting argument of Lemma 4 shows |C_v| always
// exceeds the current loop round index until a good round has happened, so
// reselection cannot occur too early.
//
// The package exposes two layers: Core, the embeddable per-round state
// machine (consensus executes one Core round per phase), and Node, the
// standalone protocol of the paper.
package rotor

import (
	"bytes"
	"cmp"
	"slices"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// AcceptedOpinion records a coordinator opinion accepted by a node: in
// round Round, the node accepted X as the opinion of coordinator From.
type AcceptedOpinion struct {
	Round int
	From  ids.ID
	X     wire.Value
}

// Core is the embeddable rotor state machine. The owner feeds it every
// inbox via NoteInbox, executes one rotor round via LoopRound whenever
// the owning protocol's schedule says so (every round for the standalone
// node; once per five-round phase for consensus), and reads what the
// selected coordinator answered out of the next inbox via Opinions.
//
// Echo tallies accumulate distinct senders between consecutive folds
// (Admit, which LoopRound calls), which reduces to the paper's per-round
// counts when rotor rounds are executed back-to-back, and generalizes
// them to the embedded setting where the echoes of one rotor round land
// several real rounds before the next rotor round executes. Distinct
// means distinct census rank. A window that holds one round's echoes of
// the shared block and nothing else — the common case — keeps the
// engine's counted list of them (simnet.EchoList), already one count per
// candidate, in candidate order. Anything more — a private echo, or
// echoes in a second round of the window — moves the window to the
// general path: the senders of an echo are ORed into the candidate's row
// of a census.Window, so a sender repeating an echo in every round of a
// window still counts once.
type Core struct {
	instance uint64

	candidates ids.Set // C_v, ordered by id
	selected   ids.Set // S_v

	shared       simnet.EchoList       // the window's echoes while they are one round of the block's
	echoes       census.Window[ids.ID] // candidate -> distinct senders this window, otherwise
	lastSelected ids.ID                // the coordinator Opinions listens to

	loopRound  int32
	borrowed   bool // candidates is a seeded set's storage, copied on the first Add
	terminated bool
	cycling    bool
}

// NewCore returns a rotor core. instance tags its candidate echoes (0 for
// the standalone protocol; concurrent parallel-consensus runs pass their
// own).
func NewCore(instance uint64) *Core {
	return &Core{instance: instance}
}

// SetCycling makes the core keep rotating coordinators after a
// reselection instead of terminating. The standalone protocol terminates
// on reselection (Algorithm 2's break); an embedding protocol like
// consensus supplies its own termination and needs the coordinator
// rotation to stay live for as long as it runs.
func (c *Core) SetCycling(cycling bool) { c.cycling = cycling }

// SeedCandidates sets C_v to members. The dynamic-network protocols scope a
// run to a known membership snapshot S and skip the two init rounds by
// starting from C_v = S; it is called on a fresh core. The core borrows
// members' storage and copies it on the first candidate it adds, so it
// never writes to members, and any number of cores may be seeded from one
// set that nobody else changes (a snapshot shared by every run of an
// epoch).
func (c *Core) SeedCandidates(members *ids.Set) {
	c.candidates = *members
	c.borrowed = true
}

// BroadcastInit broadcasts the round-1 candidacy announcement on env.
func (c *Core) BroadcastInit(env *simnet.RoundEnv) {
	env.Broadcast(wire.Init{})
}

// EchoInits broadcasts echo(p) on env for every init received directly
// from p (round 2 of the protocol). The echoes go straight to
// env.Broadcast, which does not let its payload escape, so the n echoes
// of a round allocate nothing.
func (c *Core) EchoInits(inbox *simnet.Inbox, env *simnet.RoundEnv) {
	for m := range inbox.All() {
		if _, ok := m.Payload.(wire.Init); ok {
			env.Broadcast(wire.IDEcho{Instance: c.instance, Candidate: m.From})
		}
	}
}

// NoteInbox tallies the candidate echoes of one delivered inbox, by
// distinct sender, until the next fold (Admit). view is the inbox counted
// against the owner's census (Count): echoes from senders the census does
// not know are discarded, and the others are counted under their rank.
// The first round of the window that brings echoes of the shared block
// keeps them as the engine counted them; every later echo, private or
// shared, spills the window onto the census.Window path.
func (c *Core) NoteInbox(inbox *simnet.Inbox, view View) {
	if es := view.block.Echoes(c.instance); es.Len() > 0 {
		if c.shared.Len() == 0 && c.echoes.Empty() {
			c.shared = es
		} else {
			c.spill()
			c.add(es)
			es.Release()
		}
	}
	for _, m := range inbox.Direct() {
		if echo, ok := m.Payload.(wire.IDEcho); ok && echo.Instance == c.instance {
			if who, ok := view.ranks.One(m.From); ok {
				c.spill()
				c.echoes.Add(echo.Candidate, who)
			}
		}
	}
}

// spill moves the shared echoes the window holds, if any, into its
// census.Window.
func (c *Core) spill() {
	c.add(c.shared)
	c.shared.Release()
}

// add ORs the senders of every echo of es into the candidate's row.
func (c *Core) add(es simnet.EchoList) {
	for _, e := range es.All() {
		c.echoes.Add(e.Candidate, e.Who)
	}
}

// Opinions yields the opinions that the coordinator selected by the last
// LoopRound sent in inbox, the inbox of the round after it (Algorithm 2
// lines 14-15): none before a first selection, and none from a coordinator
// outside the owner's census, which view counts against. They come
// ascending by encoding whether they were broadcast or unicast, for every
// instance tag alike. A reader keeps the last one that names the instance
// it owns, so a coordinator that sends one receiver several opinions (only
// a Byzantine one does) is taken at its greatest encoding: the decided
// tie-break, stated in DESIGN §3.
func (c *Core) Opinions(inbox *simnet.Inbox, view View, yield func(wire.Opinion)) {
	coord := c.lastSelected
	if _, member := view.ranks.Rank(coord); coord == ids.None || !member {
		return
	}
	// A coordinator sends one opinion per instance it runs; the common
	// few fit on the stack.
	var buf [8]wire.Opinion
	sent := buf[:0]
	if p, ok := slices.BinarySearch(inbox.Broadcasters(), coord); ok {
		for _, g := range inbox.Said() { // ascending by encoding already
			if op, isOp := g.Payload.(wire.Opinion); isOp && g.By.Has(p) {
				sent = append(sent, op)
			}
		}
	}
	for _, m := range inbox.Direct() { // in whatever order the links delivered
		if op, isOp := m.Payload.(wire.Opinion); isOp && m.From == coord {
			at, _ := slices.BinarySearchFunc(sent, op, compareOpinions)
			sent = slices.Insert(sent, at, op)
		}
	}
	for _, op := range sent {
		yield(op)
	}
}

// compareOpinions orders two opinions by encoding. An opinion encodes
// in at most opinionSize bytes, so both encode into stack buffers.
func compareOpinions(a, b wire.Opinion) int {
	var ab, bb [opinionSize]byte
	return bytes.Compare(wire.AppendEncode(ab[:0], a), wire.AppendEncode(bb[:0], b))
}

// opinionSize is the longest encoding of a wire.Opinion: the kind byte,
// the instance, and a value's tag byte and float.
const opinionSize = 1 + 8 + 1 + 8

// Selection is the outcome of one rotor round.
type Selection struct {
	// Coordinator is the node selected this round (ids.None if the
	// candidate set was still empty — cannot happen after a correct
	// initialization, but defended against).
	Coordinator ids.ID
	// Terminated reports that the node reselected a previous
	// coordinator this round (Algorithm 2's break).
	Terminated bool
}

// LoopRound executes one iteration of Algorithm 2's main loop: fold the
// tallied echoes into C_v (Admit) and select the next coordinator. An
// owner that finds itself selected broadcasts its opinion after the
// echoes, unless the core broke off (Terminated, without SetCycling):
// the break skips the round's pending broadcasts.
//
// nv is the caller's current n_v. The echoes are broadcast on env.
func (c *Core) LoopRound(nv int, env *simnet.RoundEnv) Selection {
	if c.terminated {
		return Selection{Terminated: true}
	}
	c.Admit(nv, env)
	r := int(c.loopRound)
	c.loopRound++
	if c.candidates.Len() == 0 {
		return Selection{}
	}
	p := c.candidates.At(r % c.candidates.Len())
	sel := Selection{Coordinator: p, Terminated: c.selected.Contains(p)}
	if sel.Terminated && !c.cycling {
		// Line 16-17: reselection — terminate.
		c.terminated = true
		return sel
	}
	c.selected.Add(p)
	c.lastSelected = p
	return sel
}

// Admit is Lines 7-10 of Algorithm 2, the reliable-broadcast style
// candidate maintenance: it echoes, in ascending candidate order, every
// candidate outside C_v that the tallied echoes put at n_v/3 senders,
// adds those at 2n_v/3 to C_v, and returns how many it added. Tallies
// are per-rotor-round: Admit empties the window. The keys are distinct,
// so an accept never changes a later key's answer, and the accepted
// candidates join C_v in one merge after the walk. LoopRound calls it;
// renaming, whose identifier set is C_v, calls it alone.
func (c *Core) Admit(nv int, env *simnet.RoundEnv) int {
	var buf [128]ids.ID
	accepted := buf[:0]
	c.fold(nv, func(cand ids.ID, quorum bool) {
		env.Broadcast(wire.IDEcho{Instance: c.instance, Candidate: cand})
		if quorum {
			accepted = append(accepted, cand)
		}
	})
	if len(accepted) > 0 {
		if c.borrowed {
			c.candidates, c.borrowed = *c.candidates.Clone(), false
		}
		c.candidates.AddAscending(accepted)
	}
	return len(accepted)
}

// fold is census.Window.Fold over the window's echoes against C_v. A
// window that holds one round's echoes of the shared block and nothing
// else is one walk over the counts: the engine counted each candidate's
// senders once for every reader of the census and sorted the candidates.
func (c *Core) fold(nv int, echo func(cand ids.ID, quorum bool)) {
	if c.shared.Len() == 0 {
		c.echoes.Fold(nv, cmp.Compare[ids.ID], c.candidates.Contains, echo)
		return
	}
	for _, e := range c.shared.All() {
		if !c.candidates.Contains(e.Candidate) && census.AtLeastThird(e.Count, nv) {
			echo(e.Candidate, census.AtLeastTwoThirds(e.Count, nv))
		}
	}
	c.shared.Release()
}

// Terminated reports whether the core has reselected a coordinator.
func (c *Core) Terminated() bool { return c.terminated }

// Candidates returns a copy of C_v.
func (c *Core) Candidates() *ids.Set { return c.candidates.Clone() }

// CandidatesView returns C_v itself rather than a copy: the read-only
// path of Candidates, for callers that neither keep nor modify it.
func (c *Core) CandidatesView() *ids.Set { return &c.candidates }
