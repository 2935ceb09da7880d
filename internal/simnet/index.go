package simnet

import (
	"runtime"
	"sync/atomic"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/wire"
)

// This file is the payload-major reading of the round's shared
// broadcast block. The block is stored sender-major — ascending
// (sender, encoding), the order Inbox.All merges — but every threshold
// of the paper asks the transposed question, "which distinct nodes sent
// me m", and a rotor echo round asks it for n candidates at once: n²
// echoes in the block, which each of the n receivers would otherwise
// walk message by message to rebuild the same payload → senders
// relation. The index answers it once per round for all of them:
//
//   - Broadcasters: the block's distinct senders, ascending. Position p
//     names Broadcasters()[p].
//   - Said: one entry per distinct payload in the block, ascending by
//     encoding, each with the set of broadcaster positions that sent it
//     — a bitset in the census.Marks layout, which the counted view of
//     a census (counted.go) turns into "which of its members" with a few
//     word ORs (census.Ranks).
//
// It is built at most once per round, by whichever Step asks first, in
// O(B + G) over the block and the round's G distinct encodings, in
// scratch that is recycled round over round and, with the rest of the
// network's scratch, across networks. A round in which nobody asks
// never builds it: the slab is one row of ⌈S/64⌉ words (S distinct
// senders) per distinct payload of the block, and a round of
// all-distinct payloads must not pay S²/64 words for an index nobody
// reads. The index is a pure function of the block and its ranks, which
// the route pass finished before any Step runs, so which task triggers
// the build — the one scheduling-dependent fact here — cannot show in
// anything a process reads.

// Said is one distinct payload of a round's broadcast block, with who
// broadcast it. It is a view of recycled engine scratch, valid like the
// Inbox it came from only until the Step call returns; the Payload
// value itself is safe to keep.
type Said struct {
	// Payload is the decoded message body.
	Payload wire.Payload
	// By holds the positions, in Inbox.Broadcasters, of the nodes that
	// broadcast Payload this round: bit p set means Broadcasters()[p]
	// did. It is exactly census.MarkWords(len(Broadcasters())) words.
	By census.Marks
}

// Build states of a guard.
const (
	indexStale uint32 = iota
	indexBuilding
	indexBuilt
)

// guard is the once-per-round guard of a structure that step tasks
// build on demand: the block index (blockIndex.ensure) and each counted
// view (Inbox.Counted). It is the only synchronisation a step task can
// reach: with a worker cap above 1 several Steps may ask at once, so the
// first claims the build with a compare-and-swap and publishes it with a
// store; a task that arrives while the claimant is still building yields
// until the store. That wait is on a peer that is running — it claimed
// from inside its own task and a build calls nothing that can block — so
// it is bounded by one build and cannot deadlock the step barrier. The
// claim makes one task the structure's sole writer for the round.
// TestEnsureBuildsOnceUnderContention and
// TestCountedViewsBuildOnceUnderContention hold it.
type guard struct{ state atomic.Uint32 }

// claim reports whether the caller must build now: false once the
// structure is built, after waiting out a build already under way.
// A true claim is published with done.
func (g *guard) claim() bool {
	if g.state.Load() == indexBuilt {
		return false
	}
	if g.state.CompareAndSwap(indexStale, indexBuilding) {
		return true
	}
	for g.state.Load() != indexBuilt {
		runtime.Gosched()
	}
	return false
}

// done publishes the build of a claim.
func (g *guard) done() { g.state.Store(indexBuilt) }

// stale marks the structure for a rebuild on the next claim. It runs in
// the route pass, when no step task is running.
func (g *guard) stale() { g.state.Store(indexStale) }

// blockIndex is the payload-major index of one round's broadcast block.
// The route pass points it at the new block and the block's ranks
// (reset); step tasks build it on demand (ensure). Every inbox of the
// round shares the one index, as it shares the block.
type blockIndex struct {
	block []Received
	// ranks is aligned with block: the rank of each message's encoding
	// among the round's nranks distinct encodings (see intern.go).
	ranks  []uint32
	nranks int
	guard  guard
	// builds counts completed builds over the index's lifetime (test
	// instrumentation: at most one per round, none when nobody asks).
	builds int
	// views are the round's counted views, one per census asked about
	// (counted.go); unions are its census merges, one per sealed census
	// asked about (union.go).
	views  viewTable
	unions unionTable

	senders []ids.ID
	said    []Said   // the finished index: ascending by encoding
	rows    []int32  // build scratch: per rank, 1 + its row in said; 0 if the block lacks it
	slab    []uint64 // len(said) rows of MarkWords(len(senders)) words
}

// reset points the index at the round's freshly materialized block and
// its ranks, and marks it stale. It runs in the route pass, when no step
// task is running.
func (ix *blockIndex) reset(block []Received, ranks []uint32, nranks int) {
	ix.block, ix.ranks, ix.nranks = block, ranks, nranks
	ix.guard.stale()
	ix.views.reset()
	ix.unions.reset()
}

// ensure builds the index if this round has not built it yet, under the
// index's guard; the writes of the one task that builds land in the
// index alone.
func (ix *blockIndex) ensure() {
	if ix.guard.claim() {
		ix.build()
		ix.guard.done()
	}
}

// build reads the block once for its distinct senders, once to mark
// the ranks it holds, and once to set each message's bit in its rank's
// row. The rows are numbered by walking the dense rank table in rank
// order, which is encoding order: Said comes out sorted without a
// comparison of encodings, and the rows of the slab never move.
func (ix *blockIndex) build() {
	block, ranks := ix.block, ix.ranks
	senders := ix.senders[:0]
	for i := range block {
		if i == 0 || block[i].From != block[i-1].From {
			senders = append(senders, block[i].From)
		}
	}
	ix.senders = senders
	words := census.MarkWords(len(senders))

	// Mark each rank with its first message in the block, then number
	// the marked ranks in ascending order.
	rows := grown(ix.rows, ix.nranks)
	clear(rows)
	for i, r := range ranks {
		if rows[r] == 0 {
			rows[r] = int32(i + 1)
		}
	}
	said := ix.said[:0]
	for r, first := range rows {
		if first != 0 {
			said = append(said, Said{Payload: block[first-1].Payload})
			rows[r] = int32(len(said))
		}
	}
	slab := grown(ix.slab, len(said)*words)
	clear(slab)
	for g := range said {
		said[g].By = slab[g*words : (g+1)*words : (g+1)*words]
	}
	pos := -1
	for i, r := range ranks {
		if i == 0 || block[i].From != block[i-1].From {
			pos++
		}
		said[rows[r]-1].By.Set(pos)
	}
	ix.said, ix.rows, ix.slab = said, rows, slab
	ix.builds++
}

// release drops every payload and encoding the index pins, keeping its
// capacity for the next network. Called with the rest of the scratch.
func (ix *blockIndex) release() {
	ix.reset(nil, nil, 0)
	clear(ix.said[:cap(ix.said)])
	ix.views.release()
}

// Broadcasters returns the distinct senders of the round's broadcast
// block in ascending order: the nodes the positions of Said.By name.
// Like Said, it is a view of recycled engine scratch.
func (in Inbox) Broadcasters() []ids.ID {
	if in.idx == nil {
		return nil
	}
	in.idx.ensure()
	return in.idx.senders[:len(in.idx.senders):len(in.idx.senders)]
}

// Said returns the round's broadcast block read payload-major: one
// entry per distinct payload, in ascending encoding order, each with
// the set of broadcasters that sent it. Together with Direct it covers
// exactly the messages All yields — a (sender, payload) pair appears
// once in the block however the question is asked — for readers that
// count distinct senders per payload and do not need the merged order.
func (in Inbox) Said() []Said {
	if in.idx == nil {
		return nil
	}
	in.idx.ensure()
	return in.idx.said[:len(in.idx.said):len(in.idx.said)]
}

// Direct returns the receiver's private segment in inbox order: the
// unicasts addressed to it and, on a link-fault round, the broadcast
// copies its links delivered (the shared block is empty then). These
// are per-receiver by nature and are read one message at a time.
func (in Inbox) Direct() []Received { return in.uni }
