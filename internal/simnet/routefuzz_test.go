package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/wire"
)

// This file checks the route() dedup/delivery pipeline against a naive
// per-receiver map-based reference implementation on randomized send
// batches: broadcast/unicast mixes, exact duplicates, unicasts
// shadowed by same-sender broadcasts, and unknown and halted targets.
// Each batch is routed under the default Config and under forced
// multi-worker caps: the route pass is serial whatever the cap, and its
// output must not depend on it.

// routePool is a fixed set of distinct payloads, small enough that
// random batches repeat them, and the byte arena holding their
// encodings back to back, which every send drawn from it points into.
type routePool struct {
	payloads []wire.Payload
	arena    []byte
	offs     []uint32
}

func newRoutePool() *routePool {
	p := &routePool{}
	for i := 0; i < 6; i++ {
		pl := wire.Event{Round: 1, Body: []byte(fmt.Sprintf("payload-%d", i))}
		p.payloads = append(p.payloads, pl)
		p.offs = append(p.offs, uint32(len(p.arena)))
		p.arena = wire.AppendEncode(p.arena, pl)
	}
	p.offs = append(p.offs, uint32(len(p.arena)))
	return p
}

func (p *routePool) send(from, to ids.ID, pi int) send {
	return send{from: from, to: to, off: p.offs[pi], n: p.offs[pi+1] - p.offs[pi]}
}

// routeCase is one generated batch: the registered nodes, which of
// them have halted, the send stream (grouped by sender in ascending
// node order with engine-stamped from — the invariant the step merge
// establishes before calling route) and the byte arena it points into.
type routeCase struct {
	nodeIDs []ids.ID
	done    []bool
	outs    []send
	arena   []byte
}

// genRouteCase draws a random batch. Unicast targets include a never-
// registered id (dropped) and halted nodes (dropped); payload choices
// are drawn from the small pool so duplicates of every class occur.
func genRouteCase(rng *rand.Rand, pool *routePool) routeCase {
	n := 3 + rng.Intn(6)
	c := routeCase{
		nodeIDs: ids.Consecutive(10, n),
		done:    make([]bool, n),
		arena:   pool.arena,
	}
	for i := range c.done {
		c.done[i] = rng.Intn(5) == 0
	}
	targets := append([]ids.ID(nil), c.nodeIDs...)
	targets = append(targets, 9999) // unknown node: unicasts to it vanish
	for i, id := range c.nodeIDs {
		if c.done[i] {
			continue // halted processes are not stepped and send nothing
		}
		for k := rng.Intn(6); k > 0; k-- {
			pi := rng.Intn(len(pool.payloads))
			if rng.Intn(5) < 2 {
				c.outs = append(c.outs, pool.send(id, ids.None, pi))
			} else {
				c.outs = append(c.outs, pool.send(id, targets[rng.Intn(len(targets))], pi))
			}
		}
	}
	return c
}

// referenceRoute is the naive model: per receiver, scan every send,
// keep those addressed to it (broadcast or direct), dedup by
// (sender, encoding) with a map, then sort by (sender, encoding) —
// the documented inbox contract — and total the accounting.
func referenceRoute(c routeCase) (inboxes [][]Received, deliveries, bytes int64) {
	inboxes = make([][]Received, len(c.nodeIDs))
	for i, id := range c.nodeIDs {
		if c.done[i] {
			continue
		}
		type key struct {
			from ids.ID
			enc  string
		}
		seen := make(map[key]send)
		var keys []key
		for _, s := range c.outs {
			if s.to != ids.None && s.to != id {
				continue
			}
			k := key{s.from, string(c.arena[s.off : s.off+s.n])}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = s
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].from != keys[b].from {
				return keys[a].from < keys[b].from
			}
			return keys[a].enc < keys[b].enc
		})
		for _, k := range keys {
			inboxes[i] = append(inboxes[i], Received{From: k.from, Payload: mustDecode([]byte(k.enc)), encoded: k.enc})
			deliveries++
			bytes += int64(len(k.enc))
		}
	}
	return inboxes, deliveries, bytes
}

// routeOnNetwork builds a network for the case, forces the requested
// worker count (0 = the default Config), routes a copy of the batch,
// and returns the network with its resulting inbox views and
// tallies. The caller Closes the network — the views read through the
// network's shared block and arena, which Close clears and recycles.
func routeOnNetwork(t testing.TB, c routeCase, workers int) (net *Network, inboxes []Inbox, deliveries, bytes int64) {
	t.Helper()
	net = New(Config{})
	if workers > 0 {
		net.forceWorkers(workers)
	}
	recs := make([]*recorder, len(c.nodeIDs))
	for i, id := range c.nodeIDs {
		recs[i] = newRecorder(id)
		recs[i].done = c.done[i]
		if err := net.Add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	outs := append([]send(nil), c.outs...)
	net.arena = append(net.arena[:0], c.arena...)
	deliveries, bytes = net.route(outs)
	inboxes = make([]Inbox, len(c.nodeIDs))
	for i := range c.nodeIDs {
		inboxes[i] = net.live[i].inbox
	}
	return net, inboxes, deliveries, bytes
}

// checkRouteCase routes the case through the engine and compares the
// lazy inbox views against the fully-materialized reference on every
// access path a Process can use: Len and iteration order through All.
// Tallies must match too — the engine computes them arithmetically from
// the shared block, the reference by walking every delivery.
func checkRouteCase(t testing.TB, c routeCase, workers int) {
	t.Helper()
	wantInboxes, wantDeliveries, wantBytes := referenceRoute(c)
	net, gotInboxes, gotDeliveries, gotBytes := routeOnNetwork(t, c, workers)
	defer net.Close()
	if gotDeliveries != wantDeliveries || gotBytes != wantBytes {
		t.Fatalf("workers=%d: tallies (%d, %d), reference (%d, %d)\ncase: %+v",
			workers, gotDeliveries, gotBytes, wantDeliveries, wantBytes, c)
	}
	sameReceived := func(got, want Received) bool {
		return got.From == want.From && got.encoded == want.encoded &&
			reflect.DeepEqual(got.Payload, want.Payload)
	}
	for i := range c.nodeIDs {
		view, want := gotInboxes[i], wantInboxes[i]
		if view.Len() != len(want) {
			t.Fatalf("workers=%d receiver %v: Len() = %d, reference %d\nwant: %+v\ncase: %+v",
				workers, c.nodeIDs[i], view.Len(), len(want), want, c)
		}
		j := 0
		for got := range view.All() {
			if !sameReceived(got, want[j]) {
				t.Fatalf("workers=%d receiver %v All() message %d: %+v, reference %+v\ncase: %+v",
					workers, c.nodeIDs[i], j, got, want[j], c)
			}
			j++
		}
		if j != len(want) {
			t.Fatalf("workers=%d receiver %v: All() yielded %d messages, reference %d",
				workers, c.nodeIDs[i], j, len(want))
		}
		// The unicast side hands every receiver an exactly-sized
		// segment; growth would mean the bucketing pass and the
		// delivery pass disagree.
		if len(view.uni) != cap(view.uni) {
			t.Fatalf("workers=%d receiver %v: unicast segment len %d != cap %d (segment resized)",
				workers, c.nodeIDs[i], len(view.uni), cap(view.uni))
		}
	}
}

// TestRouteDedupMatchesReference is the property test: random batches
// against the reference model, at the default Config and at forced
// 3- and 5-worker caps.
func TestRouteDedupMatchesReference(t *testing.T) {
	t.Parallel()
	pool := newRoutePool()
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		c := genRouteCase(rand.New(rand.NewSource(int64(seed))), pool)
		for _, workers := range []int{0, 3, 5} {
			checkRouteCase(t, c, workers)
		}
	}
}

// TestRouteDedupDirectedCases pins the duplicate classes the sort-based
// dedup argument enumerates. Pool encodings ascend with the entry index.
func TestRouteDedupDirectedCases(t *testing.T) {
	t.Parallel()
	pool := newRoutePool()
	nodes := ids.Consecutive(10, 4)
	cases := []routeCase{
		{ // distinct broadcasts from one sender: both deliver
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(10, ids.None, 2)},
		},
		{ // unicast of another encoding than the sender's broadcast: not a duplicate
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(10, 11, 2)},
		},
		{ // unicast duplicating a broadcast exactly: dropped
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(10, 11, 0)},
		},
		{ // exact duplicate broadcasts and unicasts
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{
				pool.send(10, ids.None, 1), pool.send(10, ids.None, 1),
				pool.send(10, 12, 3), pool.send(10, 12, 3),
			},
		},
		{ // same payload from different senders: distinct for receivers
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, ids.None, 0), pool.send(11, ids.None, 0)},
		},
		{ // unicasts to unknown and halted targets vanish
			nodeIDs: nodes, done: []bool{false, false, false, true},
			outs: []send{pool.send(10, 9999, 0), pool.send(10, 13, 1), pool.send(10, 11, 2)},
		},
		{ // unicasts between and after two broadcasts in encoding order:
			// only the one repeating a broadcast is dropped
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{
				pool.send(10, 12, 4), pool.send(10, ids.None, 3), pool.send(10, 11, 2),
				pool.send(10, ids.None, 1), pool.send(10, 13, 1), pool.send(10, 11, 5),
			},
		},
	}
	for i, c := range cases {
		c.arena = pool.arena
		for _, workers := range []int{0, 3} {
			t.Run(fmt.Sprintf("case=%d/workers=%d", i, workers), func(t *testing.T) {
				checkRouteCase(t, c, workers)
			})
		}
	}
}

// FuzzRouteDedup drives the same reference check from fuzzer-chosen
// bytes: each byte pair picks a sender action, so the fuzzer can steer
// the batch shape (duplicate clusters, broadcast storms, dead targets).
func FuzzRouteDedup(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x42, 0x42, 0x99, 0x07})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0x80, 0x40, 0x20, 0x10})
	pool := newRoutePool()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		n := 3 + int(data[0]%6)
		c := routeCase{nodeIDs: ids.Consecutive(10, n), done: make([]bool, n), arena: pool.arena}
		for i := range c.done {
			c.done[i] = i < len(data) && data[i]&0x11 == 0x11
		}
		targets := append([]ids.ID(nil), c.nodeIDs...)
		targets = append(targets, 9999)
		pos := 1
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := int(data[pos])
			pos++
			return b
		}
		for i, id := range c.nodeIDs {
			if c.done[i] {
				continue
			}
			for k := next() % 5; k > 0; k-- {
				pi := next() % len(pool.payloads)
				if next()%3 == 0 {
					c.outs = append(c.outs, pool.send(id, ids.None, pi))
				} else {
					c.outs = append(c.outs, pool.send(id, targets[next()%len(targets)], pi))
				}
			}
		}
		for _, workers := range []int{0, 3} {
			checkRouteCase(t, c, workers)
		}
	})
}

// The block-local sort compares 16-byte encoding prefixes and falls back
// to whole encodings only on a tie: over encodings shorter than a prefix,
// ones that differ from each other only by trailing zero bytes, ones equal
// over all 16 prefix bytes and differing after them, and bytes at both
// ends of the range, the key order of every pair of sends whose prefixes
// differ is their (encoding, to) order, and a sorted block reads in that
// order.
func TestBlockSortKeysOrderLikeEncodingThenReceiver(t *testing.T) {
	t.Parallel()
	const prefix = "0123456789abcdef" // 16 bytes
	encs := []string{
		"", "\x00", "a", "a\x00", "a\x00\x00", "a\x01", "b", "\xff",
		prefix[:15], prefix[:15] + "\x00", prefix, prefix + "\x00", prefix + "X", prefix + "Y", prefix + "XY",
		prefix[:8] + "\xff", prefix[:8] + "\x00\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	}
	tos := []ids.ID{ids.None, 10, 11}
	net := New(Config{})
	defer net.Close()
	var sends []send
	for _, e := range encs {
		for _, to := range tos {
			sends = append(sends, send{from: 7, to: to, off: uint32(len(net.arena)), n: uint32(len(e))})
		}
		net.arena = append(net.arena, e...)
	}
	enc := func(s send) string { return string(net.encOf(&s)) }
	want := func(a, b send) int {
		if c := strings.Compare(enc(a), enc(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	}
	for i := range sends {
		for j := range sends {
			a, b := net.keyOf(sends, i), net.keyOf(sends, j)
			if a.hi == b.hi && a.lo == b.lo {
				continue // a tie the sort settles on whole encodings
			}
			if got, exp := compareKeys(a, b), want(sends[i], sends[j]); got != exp {
				t.Fatalf("keys of (%q, %v) and (%q, %v) compare %d, their sends %d",
					enc(sends[i]), sends[i].to, enc(sends[j]), sends[j].to, got, exp)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		block := make([]send, 1+rng.Intn(len(sends)))
		for i := range block {
			block[i] = sends[rng.Intn(len(sends))]
		}
		if iter%4 == 0 {
			slices.SortFunc(block, want) // a block already in order stays so
		}
		ref := slices.Clone(block)
		slices.SortStableFunc(ref, want)
		net.sortBlock(block)
		for i := range block {
			if enc(block[i]) != enc(ref[i]) || block[i].to != ref[i].to {
				t.Fatalf("iteration %d: position %d holds (%q, %v), want (%q, %v)",
					iter, i, enc(block[i]), block[i].to, enc(ref[i]), ref[i].to)
			}
		}
	}
}
