package simnet

import (
	"sync"
	"sync/atomic"

	"uba/internal/ids"
)

// This file is the round's census table. A census is a sealed set
// (census package) that is replaced, never written, and the correct
// nodes of a round mostly hold equal ones: every node that reads an
// inbox merges its senders into its census (n_v) and counts the block
// against it (counted.go), and doing either once per node is O(n) work
// each, O(n²) a round, for one answer. So the engine keeps one entry per
// distinct census content asked about in a round, holding both answers,
// each built under its own guard by whichever Step asks first. A census
// is found by its address — a sealed set never changes, so its address
// names its content — or, at an address the round has not met yet, by a
// hash of its content taken before the lock and confirmed by full
// equality, so two censuses that only agree in length never share an
// entry. Equal sets at different addresses thus share one merge and one
// view, and the merge hands every holder the entry's one set back: the
// nodes that diverged and heard alike again hold one set after one round.
//
// A merge is new heap memory, not round scratch: the census that adopts
// it keeps it for as many rounds as it brings no one new. When every
// broadcaster is a member already — every round of a run after the
// first, unless someone joins — the merge is the entry's own census,
// built with no allocation.

// Union returns of ∪ every sender of this inbox, sealed: the one census
// update. The broadcasters are merged once per round for each distinct
// census content, and every Step asking about an equal census gets the
// same set back; the receiver's private senders are merged after that,
// into a copy made only when one of them is new. of must be sealed, and
// is only read; Union panics otherwise. The result is the caller's to
// keep. Every Step calls it, so it takes the inbox by pointer: a copy
// of the Inbox per call showed in warm profiles.
func (in *Inbox) Union(of *ids.Set) *ids.Set {
	if !of.Sealed() {
		panic("simnet: Union of an unsealed set")
	}
	u := of
	if in.idx != nil && len(in.idx.block) > 0 {
		u = in.idx.union(of)
	}
	own := u
	for i := range in.uni {
		if from := in.uni[i].From; !own.Contains(from) {
			if own == u {
				own = u.Clone()
			}
			own.Add(from)
		}
	}
	return own.Seal()
}

// union finds the round's merge of of with the broadcasters, building it
// if no Step did yet.
func (ix *blockIndex) union(of *ids.Set) *ids.Set {
	ix.ensure()
	e := ix.censuses.find(of)
	if e.merged.claim() {
		e.union = e.members.With(ix.senders).Seal()
		ix.censuses.unions.Add(1)
		e.merged.done()
	}
	return e.union
}

// entry is one census content of a round: its merge with the round's
// broadcasters and the block counted against it, each built on demand.
type entry struct {
	members *ids.Set // the census: the first of the equal sets asked about
	next    *entry   // the next entry of the same hash in this round
	merged  guard
	union   *ids.Set // members ∪ the broadcasters, once merged
	view    Counted
}

// censusTable holds a round's entries, one per census content asked
// about. An entry whose view an echo list pins outlives its round: it
// is held, unwritten, until the pin is released, then reused.
type censusTable struct {
	mu     sync.Mutex
	byAddr map[*ids.Set]*entry // every census asked about, by address
	byHash map[uint64]*entry   // chained through entry.next
	live   []*entry            // this round's entries
	held   []*entry            // past rounds' entries an echo list still pins
	spare  []*entry            // past rounds' entries that nothing pins
	// unions and views count completed merges and view builds over the
	// table's lifetime (test instrumentation: at most one of each per
	// distinct census content asked about per round).
	unions, views atomic.Int64
}

// find returns this round's entry of the census of, adding an unbuilt
// one if no Step asked about an equal census yet. The lock covers the
// table only, never a hash or a build.
func (t *censusTable) find(of *ids.Set) *entry {
	t.mu.Lock()
	e := t.byAddr[of]
	t.mu.Unlock()
	if e != nil {
		return e
	}
	h := of.Hash()
	t.mu.Lock()
	defer t.mu.Unlock()
	for e = t.byHash[h]; e != nil && !e.members.Equal(of); e = e.next {
	}
	if e == nil {
		if k := len(t.spare) - 1; k >= 0 {
			e, t.spare = t.spare[k], t.spare[:k]
		} else {
			e = new(entry)
		}
		e.members = of
		e.merged.stale()
		e.view.guard.stale()
		if t.byHash == nil {
			t.byHash, t.byAddr = make(map[uint64]*entry), make(map[*ids.Set]*entry)
		}
		e.next = t.byHash[h]
		t.byHash[h] = e
		t.live = append(t.live, e)
	}
	t.byAddr[of] = e
	return e
}

// reset empties the table for the next round. An entry that nothing
// pins goes back to spare for reuse; a pinned one is held until its
// last pin is released. It runs in the route pass, when no step task is
// running, so no pin is taken or released during it.
func (t *censusTable) reset() {
	held := t.held[:0]
	for _, e := range t.held {
		if e.view.pins.Load() == 0 {
			t.spare = append(t.spare, e)
		} else {
			held = append(held, e)
		}
	}
	clear(t.held[len(held):])
	t.held = held
	for _, e := range t.live {
		e.members, e.next, e.union = nil, nil, nil
		if e.view.pins.Load() == 0 {
			t.spare = append(t.spare, e)
		} else {
			t.held = append(t.held, e)
		}
	}
	clear(t.live)
	t.live = t.live[:0]
	clear(t.byHash)
	clear(t.byAddr)
}

// release empties the table and drops every payload its spare views
// pin, keeping their capacity for the next network. A view still pinned
// is left to its readers and the garbage collector.
func (t *censusTable) release() {
	t.reset()
	clear(t.held)
	t.held = t.held[:0]
	for _, e := range t.spare {
		clear(e.view.said[:cap(e.view.said)])
	}
}
