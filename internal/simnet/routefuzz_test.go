package simnet

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
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
// Each batch is split into per-node send queues, which the nodes queue
// in one real step phase — inline under the default Config, on the
// goroutines of a forced multi-worker cap otherwise — so the step
// merge's placement (Network.place) and the route pass get exactly what
// a live round gives them. The route pass is serial whatever the cap,
// but the step phase is not, and the routed inboxes must not depend on
// which worker stepped which node.

// routePool is a fixed set of distinct payloads, small enough that
// random batches repeat them, and one byte buffer holding their
// encodings back to back, which every send drawn from it points into as
// a queued send points into its node's buffer.
type routePool struct {
	payloads []wire.Payload
	enc      []byte
	offs     []uint32
}

func newRoutePool() *routePool {
	p := &routePool{}
	for i := 0; i < 6; i++ {
		pl := wire.Event{Round: 1, Body: []byte(fmt.Sprintf("payload-%d", i))}
		p.payloads = append(p.payloads, pl)
		p.offs = append(p.offs, uint32(len(p.enc)))
		p.enc = wire.AppendEncode(p.enc, pl)
	}
	p.offs = append(p.offs, uint32(len(p.enc)))
	return p
}

func (p *routePool) send(from, to ids.ID, pi int) send {
	return send{from: from, to: to, at: p.offs[pi], n: p.offs[pi+1] - p.offs[pi]}
}

// routeCase is one generated batch: the registered nodes, which of
// them have halted, the sends (each sender's in its queue order, from
// stamped with a registered id as the engine stamps it) and the bytes
// they point into.
type routeCase struct {
	nodeIDs []ids.ID
	done    []bool
	outs    []send
	enc     []byte
}

// genRouteCase draws a random batch. Unicast targets include a never-
// registered id (dropped) and halted nodes (dropped); payload choices
// are drawn from the small pool so duplicates of every class occur.
func genRouteCase(rng *rand.Rand, pool *routePool) routeCase {
	n := 3 + rng.Intn(6)
	c := routeCase{
		nodeIDs: ids.Consecutive(10, n),
		done:    make([]bool, n),
		enc:     pool.enc,
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
			k := key{s.from, string(c.enc[s.at : s.at+s.n])}
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
// worker count (0 = the default Config), runs one step phase in which
// every node queues its sends of the batch in their queue order, routes
// what the step merge placed, and returns the network with its
// resulting inbox views and tallies. The nodes are Byzantine only so
// that the contact rule, which the batches do not respect, stays out of
// the way; nothing in the route pass reads the flag. The caller Closes
// the network — the views read through the network's shared block and
// arena, which Close clears and recycles.
func routeOnNetwork(t testing.TB, c routeCase, workers int) (net *Network, inboxes []Inbox, deliveries, bytes int64) {
	t.Helper()
	net = New(Config{})
	if workers > 0 {
		net.forceWorkers(workers)
	}
	for i, id := range c.nodeIDs {
		var queue []send
		for _, s := range c.outs {
			if s.from == id {
				queue = append(queue, s)
			}
		}
		rec := newRecorder(id, func(env *RoundEnv) {
			for _, s := range queue {
				env.Send(s.to, mustDecode(c.enc[s.at:s.at+s.n]))
			}
		})
		rec.done = c.done[i]
		if err := net.AddByzantine(rec); err != nil {
			t.Fatal(err)
		}
	}
	net.round++
	outs, err := net.step()
	if err != nil {
		t.Fatal(err)
	}
	deliveries, bytes = net.route(outs)
	inboxes = make([]Inbox, len(c.nodeIDs))
	for i, st := range net.live {
		inboxes[i] = net.inboxOf(st)
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
// against the reference model, stepped inline and on forced 3- and
// 5-worker caps.
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

// TestRouteDedupDirectedCases pins the duplicate classes the
// order-based dedup argument enumerates, and the queue orders placement
// must undo. Pool encodings ascend with the entry index.
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
		{ // one payload unicast to receivers in descending id order
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{pool.send(10, 13, 2), pool.send(10, 12, 2), pool.send(10, 11, 2), pool.send(10, 10, 2)},
		},
		{ // blocks queued in descending (encoding, receiver) order: placement
			// reorders every send
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{
				pool.send(10, 13, 5), pool.send(10, 11, 5), pool.send(10, ids.None, 4),
				pool.send(10, 12, 3), pool.send(10, 11, 2), pool.send(10, ids.None, 1),
				pool.send(10, 12, 0), pool.send(10, 11, 0),
				pool.send(12, 13, 4), pool.send(12, ids.None, 3), pool.send(12, 10, 1),
			},
		},
		{ // exact duplicates interleaved with a broadcast of the same encoding:
			// every copy but the broadcast is dropped
			nodeIDs: nodes, done: make([]bool, 4),
			outs: []send{
				pool.send(11, 13, 1), pool.send(11, 10, 1), pool.send(11, ids.None, 1),
				pool.send(11, 13, 1), pool.send(11, 10, 1), pool.send(11, ids.None, 1),
				pool.send(11, 12, 0),
			},
		},
	}
	for i, c := range cases {
		c.enc = pool.enc
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
		c := routeCase{nodeIDs: ids.Consecutive(10, n), done: make([]bool, n), enc: pool.enc}
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

// Ranks are the route pass's only view of an encoding, so they must
// order exactly as the encodings do. Over real wire encodings — ones
// sharing a prefix, ones of unequal length, and IDEcho instances and
// candidates 1, 256 and 65536, whose little-endian bytes order them
// backwards, within the first eight bytes and past them — met in
// shuffled order, each generation sharing about half its encodings with
// the one before, two sends' ranks compare as bytes.Compare compares
// their encodings, a rank's entry holds its sends' encoding, and a
// sender's block as the step merge places it reads in (encoding, to)
// order. Ranking by first-met order or by hash fails it.
func TestRanksOrderLikeEncodings(t *testing.T) {
	t.Parallel()
	var payloads []wire.Payload
	for _, c := range []ids.ID{1, 256, 65536, 65537, 1 << 40} {
		for _, inst := range []uint64{0, 1, 256} {
			payloads = append(payloads, wire.IDEcho{Instance: inst, Candidate: c})
		}
	}
	for _, body := range []string{"", "\x00", "a", "a\x00", "ab", "b", "\xff", "0123456789abcdef", "0123456789abcdefX"} {
		payloads = append(payloads, wire.Event{Round: 1, Body: []byte(body)}, wire.RBMessage{Source: 7, Body: []byte(body)})
	}
	tos := []ids.ID{ids.None, 10, 11}
	net := New(Config{})
	defer net.Close()
	rng := rand.New(rand.NewSource(3))
	carried, last := 0, map[string]bool{}
	for gen := 0; gen < 40; gen++ {
		var buf []byte
		var sends []send
		for _, pi := range rng.Perm(len(payloads))[:len(payloads)/2] {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				off := len(buf)
				buf = wire.AppendEncode(buf, payloads[pi])
				sends = append(sends, send{from: 7, to: tos[rng.Intn(len(tos))], at: uint32(off), n: uint32(len(buf) - off)})
			}
		}
		encs := make([]string, len(sends))
		for i, s := range sends {
			encs[i] = string(buf[s.at : s.at+s.n])
		}
		for _, e := range encs {
			if last[e] {
				carried++
			}
		}
		last = make(map[string]bool)
		for _, e := range encs {
			last[e] = true
		}
		outs := net.place([]stepResult{{sends: sends, enc: buf}}) // renumbers sends in place
		for i := range sends {
			if got := net.intern.entry(sends[i].at).enc; got != encs[i] {
				t.Fatalf("generation %d: send %d ranks %d, whose entry holds %x, not its encoding %x", gen, i, sends[i].at, got, encs[i])
			}
			for j := range sends {
				if got, want := cmp.Compare(sends[i].at, sends[j].at), bytes.Compare([]byte(encs[i]), []byte(encs[j])); got != want {
					t.Fatalf("generation %d: ranks %d and %d compare %d, encodings %x and %x compare %d",
						gen, sends[i].at, sends[j].at, got, encs[i], encs[j], want)
				}
			}
		}
		if len(outs) != len(sends) {
			t.Fatalf("generation %d: placed %d of %d sends", gen, len(outs), len(sends))
		}
		for i := 1; i < len(outs); i++ {
			a, b := outs[i-1], outs[i]
			ea, eb := net.intern.entry(a.at).enc, net.intern.entry(b.at).enc
			if c := strings.Compare(ea, eb); c > 0 || c == 0 && a.to > b.to {
				t.Fatalf("generation %d: placed block holds (%x, %v) before (%x, %v)", gen, ea, a.to, eb, b.to)
			}
		}
	}
	if carried == 0 {
		t.Fatal("no generation carried an entry over from the one before")
	}
}
