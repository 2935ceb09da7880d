package simnet

import (
	"sync"

	"uba/internal/trace"
)

// Scratch recycling across networks. Within one Network the round
// buffers (outs, results, arenas, round record) are already reused
// round over round; this file extends the reuse across
// Network lifetimes, which is what campaign workloads need: a chaos
// campaign builds a fresh Network per (arena, seed) cell, and without
// recycling every cell re-grows every buffer from nil — piling
// allocator and GC pressure onto exactly the workload the shared
// scheduler lets run many-at-once. New adopts a recycled scratch set
// when one is available; Close clears and returns it. The pool is a
// sync.Pool, so concurrent jobs recycle without contention and the GC
// can still reclaim idle scratch under memory pressure.
//
// Determinism is untouched: scratch contents are overwritten (or
// explicitly sized and cleared) before every use — adoption only seeds
// capacities, never values — so a cell that inherits another cell's
// buffers produces byte-identical output to one that starts cold. The
// intern table is the one part whose contents carry over, and a hit in
// it returns exactly what decoding the same bytes would.

// netScratch is the recyclable allocation footprint of one Network:
// every round-scoped buffer that grows to a workload-dependent
// high-water mark. It is embedded in Network by value, so adoption and
// release are one struct assignment each — a buffer added here is
// recycled with no further bookkeeping. Payload-carrying slots are
// cleared before the set enters the pool, so parked scratch pins no
// payload beyond the intern table's two generations.
type netScratch struct {
	// Step merge (network.go): the node-ordered send stream, the
	// per-node result slots it is merged from, and the per-node send
	// buffers parked for the next node to be added.
	outs    []send
	results []stepResult
	spare   []nodeBuf
	// roundEvents is the round record: the current round's engine events
	// and, for an Observer, one event per stored message (see RunRound).
	roundEvents []trace.Event
	// Routing (route.go): the done snapshot, the surviving broadcast
	// indices, the per-receiver unicast buckets, and the shared broadcast
	// block (with its ranks) and unicast arena the inbox views read
	// through.
	doneMask   []bool
	bcastIdx   []int32
	uniRecv    []int32
	uniSend    []int32
	uniIdx     []int32
	uniStart   []int32
	uniCursor  []int32
	bcastBlock []Received
	bcastRank  []uint32
	uniArena   []Received
	// intern holds the decoded payload of every distinct encoding merged
	// this round and last, and ranks this round's (intern.go).
	intern internTable
	// index is the payload-major reading of bcastBlock (index.go). It
	// is held by pointer — every inbox of a round shares it, and its
	// once-guard must not be copied — and made by New when the pool had
	// none to hand over.
	index *blockIndex
}

var scratchPool sync.Pool

// adoptScratch installs a recycled scratch set into a fresh Network,
// if the pool has one. Called from New; a miss just means the buffers
// grow lazily as before.
func (n *Network) adoptScratch() {
	s, _ := scratchPool.Get().(*netScratch)
	if s == nil {
		return
	}
	// Keep the emptied box for releaseScratch, so a Network's whole
	// recycle cycle allocates nothing after the first generation.
	n.netScratch, *s = *s, netScratch{}
	n.scratchBox = s
}

// releaseScratch clears the network's payload-carrying round buffers to
// their full capacity — dropping every payload, event and error
// reference they pinned — and parks the set, with every live node's send
// buffers, in the pool for the next Network. Lengths are left as they
// are: every buffer is re-sized before each use. Called from Close.
func (n *Network) releaseScratch() {
	for _, st := range n.live {
		n.parkBuf(st)
	}
	clear(n.results[:cap(n.results)])
	clear(n.roundEvents[:cap(n.roundEvents)])
	clear(n.bcastBlock[:cap(n.bcastBlock)])
	clear(n.uniArena[:cap(n.uniArena)])
	n.index.release()
	n.bcastLive, n.uniLive = 0, 0
	s := n.scratchBox
	if s == nil {
		s = new(netScratch)
	}
	n.scratchBox = nil
	*s, n.netScratch = n.netScratch, netScratch{}
	scratchPool.Put(s)
}
