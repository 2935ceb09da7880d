package simnet

import (
	"cmp"
	"slices"
	"sync/atomic"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/wire"
)

// This file is the round's broadcast block counted against a census.
// Every threshold of the paper — the n_v/3 echo and 2n_v/3 accept of
// Algorithm 1, the candidate set of Algorithm 2, the ballots of
// Algorithm 3 — asks how many distinct members of the reader's census
// broadcast a payload. The answer is a pure function of the block and
// the census, and the correct nodes of a round share the block and,
// mostly, the census: under a silent or split adversary every one of
// them holds the same frozen census, under noise there are two. So the
// engine answers once per round for each distinct census asked about,
// and every reader of that census reads the one answer:
//
//   - Said: one entry per group of Inbox.Said, in the same (encoding)
//     order, with its broadcasters translated into census ranks and
//     counted;
//   - Echoes: the block's wire.IDEcho groups that some member sent,
//     sorted by (instance, candidate), the order the rotor folds in.
//
// A view is one half of an entry of the round's census table
// (union.go), found like the census's merge: by the census's address,
// or by its content, so equal censuses at different addresses share one
// view. It is built once per round under its own guard, by whichever
// Step asks first, in scratch recycled round over round — except that
// an echo list may outlive the Step: the consensus node notes a phase's
// echoes in one round and folds them four rounds later. So Echoes pins
// the view, and the route pass recycles only views that no reader pins;
// a pinned one is held, never written, until a later route pass finds
// its last pin released.

// Counted is the round's broadcast block counted against one census: a
// view shared by every reader of that census, valid until the Step call
// returns except for the echo lists Echoes pins. A nil *Counted is the
// view of a round with no block, or of an empty census: it counts
// nothing.
type Counted struct {
	guard guard
	// pins counts the echo lists handed out and not yet released; a
	// pinned view is not recycled until it reads 0.
	pins atomic.Int32

	said   []SaidCount
	echoes []Echo
	ranks  census.Ranks // build scratch: the census laid over the broadcasters
	slab   []uint64     // len(said) rows of MarkWords(census size) words
}

// SaidCount is one group of Inbox.Said counted against a census.
type SaidCount struct {
	// Payload is the group's payload, safe to keep like Said.Payload.
	Payload wire.Payload
	// Who holds the census ranks of the group's broadcasters; members
	// outside the census are left out. It is the view's and read-only.
	Who census.Marks
	// Count is the number of ranks in Who.
	Count int
}

// Echo is one wire.IDEcho group of the block counted against a census.
type Echo struct {
	Instance  uint64
	Candidate ids.ID
	// Count is how many census members broadcast the echo: at least 1.
	Count int
	// Who holds their census ranks, read-only.
	Who census.Marks
}

// Counted returns the round's broadcast block counted against the
// census whose members are of, building it if no Step of this round
// asked about an equal census yet. of must be sealed, as for Union;
// Counted panics otherwise.
func (in *Inbox) Counted(of *ids.Set) *Counted {
	if !of.Sealed() {
		panic("simnet: Counted of an unsealed set")
	}
	if in.idx == nil || len(in.idx.block) == 0 || of.Len() == 0 {
		return nil
	}
	return in.idx.counted(of)
}

// Said returns every group of Inbox.Said in the same order, counted. It
// is engine scratch, valid until the Step call returns.
func (v *Counted) Said() []SaidCount {
	if v == nil {
		return nil
	}
	return v.said[:len(v.said):len(v.said)]
}

// Echoes returns the echoes of instance that census members broadcast,
// ascending by candidate. A non-empty list pins the view: it stays valid
// across Steps, immutable, until its Release.
func (v *Counted) Echoes(instance uint64) EchoList {
	if v == nil {
		return EchoList{}
	}
	lo, _ := slices.BinarySearchFunc(v.echoes, instance, func(e Echo, inst uint64) int {
		return cmp.Compare(e.Instance, inst)
	})
	hi := lo
	for hi < len(v.echoes) && v.echoes[hi].Instance == instance {
		hi++
	}
	if lo == hi {
		return EchoList{}
	}
	v.pins.Add(1)
	return EchoList{v: v, lo: int32(lo), hi: int32(hi)}
}

// EchoList is one instance's echoes of one round, counted against a
// census: a pinned part of a Counted view. The zero value is the empty
// list, which pins nothing.
type EchoList struct {
	v      *Counted
	lo, hi int32
}

// Len returns the number of echoed candidates.
func (l EchoList) Len() int { return int(l.hi - l.lo) }

// All returns the echoes, ascending by candidate; they are the view's
// and read-only, and valid until Release.
func (l EchoList) All() []Echo {
	if l.v == nil {
		return nil
	}
	return l.v.echoes[l.lo:l.hi:l.hi]
}

// Release unpins the list and empties it. Releasing the empty list does
// nothing.
func (l *EchoList) Release() {
	if l.v != nil {
		l.v.pins.Add(-1)
		*l = EchoList{}
	}
}

// counted finds the round's view of the census of and builds it if no
// Step did yet: it lays the census over the broadcasters once
// (census.Ranks), translates each group's broadcaster positions into a
// row of the view's slab, and sorts the echoes.
func (ix *blockIndex) counted(of *ids.Set) *Counted {
	ix.ensure()
	e := ix.censuses.find(of)
	v := &e.view
	if !v.guard.claim() {
		return v
	}
	v.ranks.Lay(ix.senders, e.members)
	words := census.MarkWords(e.members.Len())
	slab := grown(v.slab, len(ix.said)*words)
	clear(slab)
	said, echoes := v.said[:0], v.echoes[:0]
	for g := range ix.said {
		who := census.Marks(slab[g*words : (g+1)*words : (g+1)*words])
		if by, any := v.ranks.Of(ix.said[g].By); any {
			copy(who, by)
		}
		c := SaidCount{Payload: ix.said[g].Payload, Who: who, Count: who.Count()}
		said = append(said, c)
		if e, ok := c.Payload.(wire.IDEcho); ok && c.Count > 0 {
			echoes = append(echoes, Echo{Instance: e.Instance, Candidate: e.Candidate, Count: c.Count, Who: who})
		}
	}
	slices.SortFunc(echoes, func(a, b Echo) int {
		if c := cmp.Compare(a.Instance, b.Instance); c != 0 {
			return c
		}
		return cmp.Compare(a.Candidate, b.Candidate)
	})
	v.said, v.echoes, v.slab = said, echoes, slab
	ix.censuses.views.Add(1)
	v.guard.done()
	return v
}
