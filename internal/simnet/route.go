package simnet

import (
	"slices"

	"uba/internal/ids"
	"uba/internal/trace"
)

// This file is the routing/delivery half of a round. Broadcast-heavy
// protocols used to pay an O(n²) fan-out here — n receivers times B
// materialized broadcast copies; now a broadcast is stored once in a
// shared block and every inbox is a lazy view, so the whole pass is
// O(S + B + U) (sends, surviving broadcasts, unicast deliveries) plus
// the per-receiver constant of handing out views. It is one serial pass
// on the goroutine driving the network: no part of it is dispatched to
// the scheduler, whatever Config.Workers says.
//
// The pipeline, per round, over the placed send stream: the step merge
// (place, intern.go) hands it over in (from, encoding, to) order, every
// send's encoding a rank, so route compares no byte and runs no
// comparison sort.
//
//  1. Dedup + classify. One scan drops exactly the duplicates the model
//     discards — adjacent sends of equal rank and receiver, and unicasts
//     whose rank is that of their sender's last broadcast (placement puts
//     a broadcast first among its encoding's sends) — and classifies
//     each surviving send as a broadcast (index into outs) or a unicast
//     resolved to its receiver's live index (dropped here if the target
//     is unknown or done; Done is snapshotted once per round — no
//     process steps during routing, so the snapshot is exact). Unicasts
//     are then bucketed per receiver with a stable counting sort,
//     preserving send order.
//
//  2. Sparse materialization. The surviving broadcasts are built once
//     into the shared broadcast block, with their ranks beside it for
//     the block index, and the surviving unicasts once into the unicast
//     arena, each aligned with its send index list — O(B + U) Received
//     values total, regardless of the receiver count — from the intern
//     table's entry at each send's rank. They are what let a receiver's
//     view outlive the outs buffer, which the next step merge rewrites.
//     Block and arena are recycled across rounds — which is why
//     Process.Step must not retain env.Inbox (see the package docs).
//     The round record, which mirrors this storage, is finished here
//     for an observer that reads message events.
//     Each block sender's lastBcast is stamped here, which is all the
//     contact rule needs of the block (see Network.knows).
//
//  3. Delivery. One walk over the receivers in node order notes, per
//     receiver, the bounds of its arena segment; the Inbox view over
//     the shared block and that segment is built when the receiver
//     steps (Network.setInbox), and its merge by send index
//     reproduces exactly the (sender, encoding)-sorted inbox the
//     materialized engine produced. Delivery and byte tallies are
//     computed arithmetically (per-receiver: B broadcasts plus its
//     bucket; bytes: the block's byte total plus the bucket's) without
//     touching message data. An arena entry's sender that is not yet a
//     contact of its receiver becomes a heard one. The walk has one behaviour whether
//     or not the round is observed: it writes no trace event (the
//     transcript is read back from the inboxes afterwards; see RunRound).

// route fans out and filters the round's placed sends into next-round
// inboxes, finishes the round record with the round's message events
// (for an observer that reads them), and returns the delivery/byte totals for the batched Collector flush.
// It only reads outs. See the pipeline comment at the top of this file;
// the dedup key is (sender, encoding) per receiver, compared as ranks.
func (n *Network) route(outs []send) (deliveries, volume int64) {
	// (1) Done snapshot: Done is constant during routing (no process
	// steps between the step barrier and the next round), so one call
	// per receiver replaces the old per-(send, receiver) interface call.
	nl := len(n.live)
	n.doneMask = grown(n.doneMask, nl)
	for i, st := range n.live {
		// Crash faults are unreachable: containment means a crashed
		// node receives nothing, exactly like a halted one.
		n.doneMask[i] = st.crashed || st.proc.Done()
	}

	// (2) Dedup + classify. Under the (from, encoding, to) order, exact
	// duplicates are adjacent (previous-send compare), and a broadcast
	// comes before any same-encoding unicast from the same sender
	// (ids.None is the smallest id). So a unicast repeats one of its
	// sender's broadcasts exactly when its encoding is that of the
	// sender's last broadcast.
	lastB := -1 // the sender's last broadcast so far, an index into outs
	n.bcastIdx = n.bcastIdx[:0]
	n.uniRecv = n.uniRecv[:0]
	n.uniSend = n.uniSend[:0]
	for k := range outs {
		s := &outs[k]
		if k > 0 {
			p := &outs[k-1]
			if p.from != s.from {
				lastB = -1
			} else if p.to == s.to && p.at == s.at {
				// Exact duplicate of the previous send: discarded by
				// the model.
				continue
			}
		}
		if s.to == ids.None {
			lastB = k
			n.bcastIdx = append(n.bcastIdx, int32(k))
			continue
		}
		if lastB >= 0 && outs[lastB].at == s.at {
			// Same payload already broadcast by this sender this round;
			// the unicast copy is a duplicate for its target.
			continue
		}
		r, ok := slices.BinarySearch(n.order, s.to)
		if !ok || n.doneMask[r] {
			continue // unknown or halted target: dropped
		}
		n.uniRecv = append(n.uniRecv, int32(r))
		n.uniSend = append(n.uniSend, int32(k))
	}

	if n.faults != nil && n.faults.linkLive {
		// (2b) Link-fault filter: rewrite the classified stream under
		// the live partition/drop rules (see fault.go). Broadcasts are
		// demoted to per-receiver unicast entries in send-index order,
		// so the bucket order below reproduces the merge order exactly.
		n.faultFilter(outs)
	}

	// (3) Bucket unicasts per receiver (stable counting sort: within a
	// bucket, send order — and therefore the sorted order — is kept).
	n.uniStart = grown(n.uniStart, nl+1)
	clear(n.uniStart)
	for _, r := range n.uniRecv {
		n.uniStart[r+1]++
	}
	for i := 0; i < nl; i++ {
		n.uniStart[i+1] += n.uniStart[i]
	}
	// uniIdx and the arena take uniRecv's capacity, which append grows
	// geometrically: under a drop rule the count of surviving unicasts
	// varies round to round, and sizing them exactly would reallocate
	// at every new maximum.
	n.uniIdx = grown(n.uniIdx, cap(n.uniRecv))[:len(n.uniRecv)]
	n.uniCursor = grown(n.uniCursor, nl)
	copy(n.uniCursor, n.uniStart[:nl])
	for j, r := range n.uniRecv {
		n.uniIdx[n.uniCursor[r]] = n.uniSend[j]
		n.uniCursor[r]++
	}

	// (4) Sparse materialization: build the surviving broadcasts once
	// into the shared block, their ranks beside them, and the surviving
	// unicasts once into the arena, aligned with bcastIdx and uniIdx
	// respectively, each from the intern table's one decoded payload and
	// string for its encoding. Receivers get views over these, never over
	// outs — the step merge rewrites it. Broadcasts a link-fault round
	// demoted to arena entries keep their Broadcast transcript flag
	// through Received.bcast. Shrink-clearing the recycled tails drops
	// the references held by last round's larger block/arena so dead
	// payloads are not pinned. The block and its ranks, like the arena,
	// take their index list's capacity, which append grows geometrically,
	// so a round one broadcast past the last maximum reallocates neither.
	nb := len(n.bcastIdx)
	n.bcastBlock = recycled(n.bcastBlock, nb, cap(n.bcastIdx), &n.bcastLive)
	n.bcastRank = grown(n.bcastRank, cap(n.bcastIdx))[:nb]
	var bbytes int64
	sender := 0 // cursor over n.order: the block is sender-ascending
	for j, k := range n.bcastIdx {
		s := &outs[k]
		n.materialize(&n.bcastBlock[j], s, true)
		n.bcastRank[j] = s.at
		bbytes += int64(s.n)
		for n.order[sender] != s.from {
			sender++
		}
		n.live[sender].lastBcast = n.round
	}
	n.index.reset(n.bcastBlock, n.bcastRank, len(n.intern.cur.entries))
	nu := len(n.uniIdx)
	n.uniArena = recycled(n.uniArena, nu, cap(n.uniRecv), &n.uniLive)
	for j, k := range n.uniIdx {
		s := &outs[k]
		n.materialize(&n.uniArena[j], s, s.to == ids.None)
	}

	// (5) The round record mirrors this storage: after the engine events
	// already in it, one message event per stored message — each
	// shared-block broadcast once (To 0: delivered to every receiver
	// live this round), then each arena entry once, in receiver order.
	// O(B + U), like the storage, and built only for an observer that
	// reads message events: one that is not a MessageReader, or that
	// answers true this round. The engine events are recorded whatever
	// it answers. The record is grown once, to B + U more, not by
	// doubling from empty.
	n.engineEvents = len(n.roundEvents)
	if n.cfg.Observer != nil && (n.msgReader == nil || n.msgReader.ReadsMessages()) {
		n.roundEvents = slices.Grow(n.roundEvents, nb+nu)
		round := n.round + 1 // deliveries land at the start of the next round
		for j := range n.bcastBlock {
			n.roundEvents = append(n.roundEvents, messageEvent(round, &n.bcastBlock[j], ids.None))
		}
		for r, st := range n.live {
			for j := n.uniStart[r]; j < n.uniStart[r+1]; j++ {
				n.roundEvents = append(n.roundEvents, messageEvent(round, &n.uniArena[j], st.id))
			}
		}
	}

	// (6) Delivery: note every receiver's next-round inbox, in node
	// order. Block, arena and index lists are finished; the walk only
	// reads them.
	for i, st := range n.live {
		ulo, uhi := n.uniStart[i], n.uniStart[i+1]
		nm := nb + int(uhi-ulo)
		if n.doneMask[i] || nm == 0 {
			st.delivery = inboxBounds{}
			continue
		}
		// The receiver's inbox is the shared broadcast block merged with
		// its private arena segment by global send index — the
		// receiver-relevant subsequence of the (from, encoding,
		// to)-sorted send stream, i.e. the documented (sender,
		// encoding) inbox order. Only the segment's bounds are stored;
		// the view is built when the receiver steps (Network.setInbox).
		st.delivery = inboxBounds{lo: ulo, hi: uhi, fed: true}
		// Tallies are arithmetic — no per-receiver message walk: the
		// block's sizes are shared by every live receiver.
		deliveries += int64(nm)
		volume += bbytes
		// The block's senders are contacts through lastBcast; an arena
		// entry's sender is noted unless it already is one. A segment is
		// in send order, so one sender's entries are adjacent.
		prev := ids.None
		for j := ulo; j < uhi; j++ {
			m := &n.uniArena[j]
			volume += int64(len(m.encoded))
			if m.From != prev && !n.knows(st, m.From) {
				st.heard.Add(m.From)
			}
			prev = m.From
		}
	}
	return deliveries, volume
}

// materialize writes s, whose encoding has rank s.at in the intern
// table, into m for delivery.
func (n *Network) materialize(m *Received, s *send, bcast bool) {
	e := n.intern.entry(s.at)
	*m = Received{From: s.from, Payload: e.p, encoded: e.enc, bcast: bcast}
}

// messageEvent is the trace event of m delivered to `to` at the start of
// round; to == ids.None stands for every receiver live that round.
func messageEvent(round int, m *Received, to ids.ID) trace.Event {
	return trace.Event{
		Round:     round,
		From:      uint64(m.From),
		To:        uint64(to),
		Kind:      m.Payload.Kind().String(),
		Size:      len(m.encoded),
		Broadcast: m.bcast,
		Enc:       m.encoded,
	}
}

// recycled returns s resized to n elements, reusing its backing array
// when possible (a new one has capacity c, at least n) and clearing the
// previously live tail beyond n so a shrinking round cannot pin the
// references the dead slots held. live is updated to n. Contents of the
// returned slice are unspecified; callers overwrite every element.
func recycled(s []Received, n, c int, live *int) []Received {
	if cap(s) < n {
		s = make([]Received, n, max(n, c))
	} else {
		if n < *live {
			clear(s[n:*live])
		}
		s = s[:n]
	}
	*live = n
	return s
}

// grown returns s resized to n elements, reusing its backing array when
// possible. Contents are unspecified; callers overwrite or clear.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
