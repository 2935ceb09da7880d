package simnet

import (
	"sync"
	"sync/atomic"

	"uba/internal/ids"
)

// This file is the round's census merge. Every node that reads an inbox
// observes its broadcasters into its census (n_v), and the correct
// nodes of a round mostly hold one census, shared as one sealed set
// (census package): merging the same broadcasters into the same set
// once per node is O(n) work each, O(n²) a round, for one answer. So the
// engine answers "this sealed census ∪ this round's broadcasters" once
// per round for each distinct set asked about, found by the set's
// address (a sealed set never changes, so its address names its
// content), built under its own guard by whichever Step asks first. The answer is new heap memory, not round scratch: the census
// that adopts it keeps it for as many rounds as it brings no one new.
// When every broadcaster is a member already — every round of a run
// after the first, unless someone joins — the answer is the set itself,
// built with no merge and no allocation.

// Union returns of ∪ Broadcasters(), sealed: of itself when every
// broadcaster is in it already, else a new set that every Step of the
// round asking about the same of gets too. It is the caller's to keep.
// of must be sealed, since the answer is found by its address; Union
// panics otherwise.
func (in Inbox) Union(of *ids.Set) *ids.Set {
	if !of.Sealed() {
		panic("simnet: Union of an unsealed set")
	}
	if in.idx == nil || len(in.idx.block) == 0 {
		return of
	}
	return in.idx.union(of)
}

// union is one sealed census merged with the round's broadcasters.
type union struct {
	guard guard
	set   *ids.Set
}

// union finds the round's merge of of, building it if no Step did yet.
func (ix *blockIndex) union(of *ids.Set) *ids.Set {
	ix.ensure()
	u := ix.unions.find(of)
	if u.guard.claim() {
		u.set = of.With(ix.senders).Seal()
		ix.unions.builds.Add(1)
		u.guard.done()
	}
	return u.set
}

// unionTable holds a round's merges, one per sealed census asked about.
type unionTable struct {
	mu    sync.Mutex
	found map[*ids.Set]*union // by the census's address
	pool  []*union            // pool[:used] are this round's; the rest are spare
	used  int
	// builds counts completed merges over the table's lifetime (test
	// instrumentation: one per distinct census asked about per round).
	builds atomic.Int64
}

// find returns this round's merge of of, adding an unbuilt one if no
// Step asked about of yet; the lock covers only the table.
func (t *unionTable) find(of *ids.Set) *union {
	t.mu.Lock()
	defer t.mu.Unlock()
	if u := t.found[of]; u != nil {
		return u
	}
	if t.used == len(t.pool) {
		t.pool = append(t.pool, new(union))
	}
	u := t.pool[t.used]
	t.used++
	u.guard.stale()
	if t.found == nil {
		t.found = make(map[*ids.Set]*union)
	}
	t.found[of] = u
	return u
}

// reset empties the table for the next round and drops the sets it
// holds. It runs in the route pass, when no step task is running.
func (t *unionTable) reset() {
	for _, u := range t.pool[:t.used] {
		u.set = nil
	}
	t.used = 0
	clear(t.found)
}
