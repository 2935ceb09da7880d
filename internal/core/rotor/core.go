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
// Echo tallies accumulate distinct senders between consecutive LoopRound
// calls, which reduces to the paper's per-round counts when rotor rounds
// are executed back-to-back, and generalizes them to the embedded setting
// where the echoes of one rotor round land several real rounds before the
// next rotor round executes. Distinct means distinct census rank: the
// senders of an echo are ORed into the candidate's row of the window
// (census.Window), so a sender repeating an echo in every round of a
// window still counts once.
type Core struct {
	instance uint64

	candidates ids.Set // C_v, ordered by id
	borrowed   bool    // candidates is a seeded set's storage, copied on the first Add
	selected   ids.Set // S_v

	echoes       census.Window[ids.ID] // candidate -> distinct senders this window
	lastSelected ids.ID                // the coordinator Opinions listens to

	loopRound  int
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
func (c *Core) EchoInits(inbox simnet.Inbox, env *simnet.RoundEnv) {
	for m := range inbox.All() {
		if _, ok := m.Payload.(wire.Init); ok {
			env.Broadcast(wire.IDEcho{Instance: c.instance, Candidate: m.From})
		}
	}
}

// NoteInbox tallies the candidate echoes of one delivered inbox, by
// distinct sender, until the next LoopRound. ranks is the owner's census
// laid over this inbox's broadcasters (census.Ranks.Reset): echoes from
// senders the census does not know are discarded, and the others are
// counted under their rank. Ranks are positions in the census, so every
// inbox of one window must be laid over the same census: an owner that
// notes several inboxes per LoopRound counts against a census.Frozen, as
// consensus does; the standalone node observes, notes and folds in one
// Step.
func (c *Core) NoteInbox(inbox simnet.Inbox, ranks *census.Ranks) {
	Heard(inbox, ranks, func(p wire.Payload, from Senders) {
		if echo, ok := p.(wire.IDEcho); ok && echo.Instance == c.instance {
			if who, ok := from.Ranks(); ok {
				c.echoes.Add(echo.Candidate, who)
			}
		}
	})
}

// Opinions yields the opinions that the coordinator selected by the last
// LoopRound sent in inbox, the inbox of the round after it (Algorithm 2
// lines 14-15): none before a first selection, and none from a coordinator
// outside the owner's census, which ranks is laid from. They come
// ascending by encoding whether they were broadcast or unicast, for every
// instance tag alike. A reader keeps the last one that names the instance
// it owns, so a coordinator that sends one receiver several opinions (only
// a Byzantine one does) is taken at its greatest encoding: the decided
// tie-break, stated in DESIGN §3.
func (c *Core) Opinions(inbox simnet.Inbox, ranks *census.Ranks, yield func(wire.Opinion)) {
	coord := c.lastSelected
	if _, member := ranks.Rank(coord); coord == ids.None || !member {
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
// tallied echoes into C_v (echoing/adding in reliable-broadcast fashion)
// and select the next coordinator. An owner that finds itself selected
// broadcasts its opinion after the echoes, unless the core broke off
// (Terminated, without SetCycling): the break skips the round's pending
// broadcasts.
//
// nv is the caller's current n_v. The echoes are broadcast on env.
func (c *Core) LoopRound(nv int, env *simnet.RoundEnv) Selection {
	if c.terminated {
		return Selection{Terminated: true}
	}
	r := c.loopRound
	c.loopRound++

	// Reliable-broadcast style candidate maintenance (Lines 7-10).
	// Tallies are per-rotor-round: the fold empties the window.
	c.echoes.Fold(nv, cmp.Compare[ids.ID], c.candidates.Contains, func(cand ids.ID, quorum bool) {
		env.Broadcast(wire.IDEcho{Instance: c.instance, Candidate: cand})
		if quorum {
			if c.borrowed {
				c.candidates, c.borrowed = *c.candidates.Clone(), false
			}
			c.candidates.Add(cand)
		}
	})

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

// Terminated reports whether the core has reselected a coordinator.
func (c *Core) Terminated() bool { return c.terminated }

// Candidates returns a copy of C_v.
func (c *Core) Candidates() *ids.Set { return c.candidates.Clone() }
