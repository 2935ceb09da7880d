package simnet

import (
	"errors"
	"testing"

	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// A round that aborts on a contact-rule violation must contribute no
// traffic to the Collector: sends are flushed only after the whole round
// validates, so the report cannot be inflated by a round that never
// delivered anything.
func TestAbortedRoundRecordsNoTraffic(t *testing.T) {
	t.Parallel()
	var col trace.Collector
	net := New(Config{Collector: &col})
	// One well-behaved broadcaster and one violator: the broadcaster's
	// sends must not be counted either, because the round aborts.
	good := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("fine")) })
	bad := newRecorder(2, func(env *RoundEnv) { env.Send(1, body("illegal")) })
	if err := net.Add(good); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(bad); err != nil {
		t.Fatal(err)
	}
	if err := net.RunRound(); !errors.Is(err, ErrContactRule) {
		t.Fatalf("err = %v, want ErrContactRule", err)
	}
	r := col.Report()
	if r.Sends != 0 || r.Deliveries != 0 || r.Bytes != 0 {
		t.Fatalf("aborted round leaked traffic into the report: %v", r)
	}
	if len(r.PerRound) != 0 {
		t.Fatalf("aborted round appended per-round stats: %+v", r.PerRound)
	}
}

// A unicast whose payload duplicates one of its sender's same-round
// broadcasts is a duplicate for the unicast target (the dedup key is
// (sender, encoding) per receiver) and must be dropped.
func TestUnicastDuplicatingBroadcastIsDropped(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	dup := body("same")
	sender := newRecorder(1, nil, func(env *RoundEnv) {
		env.Broadcast(dup)
		env.Send(2, dup)
		env.Send(3, dup)
	})
	b := newRecorder(2, hello)
	c := newRecorder(3, hello)
	for _, p := range []*recorder{sender, b, c} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 3)
	for _, p := range []*recorder{b, c} {
		if len(p.received[2]) != 1 {
			t.Fatalf("node %v inbox = %+v, want the broadcast copy only", p.id, p.received[2])
		}
	}
}

// Inboxes must be sorted by (sender, encoding) even when a sender mixes
// broadcasts and unicasts whose encodings straddle each other — the case
// where delivery order alone would not produce sorted inboxes.
func TestInboxSortedWithMixedBroadcastAndUnicast(t *testing.T) {
	t.Parallel()
	small := wire.Event{Round: 1, Body: []byte("aaa")}
	large := wire.Event{Round: 1, Body: []byte("zzz")}
	if string(wire.Encode(small)) >= string(wire.Encode(large)) {
		t.Fatal("test payloads not ordered as intended")
	}
	net := New(Config{})
	// Broadcast the large encoding and unicast the small one: the
	// receiver must still see them in encoding order.
	sender := newRecorder(1, nil, func(env *RoundEnv) {
		env.Broadcast(large)
		env.Send(2, small)
	})
	sink := newRecorder(2, hello)
	if err := net.Add(sender); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(sink); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 3)
	inbox := sink.received[2]
	if len(inbox) != 2 {
		t.Fatalf("inbox = %+v, want 2 messages", inbox)
	}
	if inbox[0].encoded > inbox[1].encoded {
		t.Fatalf("inbox not sorted by encoding: %q then %q", inbox[0].encoded, inbox[1].encoded)
	}
}

// Identical unicasts to *different* receivers are not duplicates of each
// other (the dedup is per receiver).
func TestIdenticalUnicastsToDistinctReceiversBothDeliver(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	sender := newRecorder(1, nil, func(env *RoundEnv) {
		env.Send(2, body("copy"))
		env.Send(3, body("copy"))
	})
	b := newRecorder(2, hello)
	c := newRecorder(3, hello)
	for _, p := range []*recorder{sender, b, c} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 3)
	if len(b.received[2]) != 1 || len(c.received[2]) != 1 {
		t.Fatalf("per-receiver dedup overreached: %+v / %+v", b.received[2], c.received[2])
	}
}

// Close detaches the scheduler binding, parks the round scratch in the
// recycling pool, and is safe to call twice — also on a network that
// never ran a round.
func TestCloseReleasesSchedulerAndScratch(t *testing.T) {
	t.Parallel()
	net := New(Config{Workers: 2})
	for i := ids.ID(1); i <= 4; i++ {
		if err := net.Add(newRecorder(i, func(env *RoundEnv) { env.Broadcast(body("x")) })); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 3)
	if net.sched == nil {
		t.Fatal("running rounds did not bind the network to a scheduler")
	}
	net.Close()
	if net.sched != nil {
		t.Fatal("Close left the scheduler binding attached")
	}
	if net.outs != nil || net.bcastBlock != nil || net.results != nil || net.roundEvents != nil {
		t.Fatal("Close did not park the round scratch in the recycling pool")
	}
	net.Close() // idempotent

	seq := New(Config{})
	seq.Close() // never ran a round: still safe
}

// Delivered inboxes are lazy views over shared storage: every live
// receiver's view aliases the one broadcast block (a broadcast is
// stored once per round, not once per receiver), its unicast segment is
// exactly sized, and total materialized storage is O(B + U) — the
// receiver count multiplies neither term.
func TestInboxViewsShareBroadcastBlock(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	const n = 5
	for i := ids.ID(1); i <= n; i++ {
		i := i
		if err := net.Add(newRecorder(i, hello, func(env *RoundEnv) {
			env.Broadcast(body("b"))
			env.Send(1+(i%n), body("u"))
		})); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 2)
	for _, st := range net.live {
		in := st.inbox
		if in.Len() != n+1 { // n broadcasts + 1 unicast each
			t.Fatalf("node %v inbox length %d, want %d", st.id, in.Len(), n+1)
		}
		if len(in.bcast) != n || &in.bcast[0] != &net.bcastBlock[0] {
			t.Fatalf("node %v broadcast side is not a view of the shared block", st.id)
		}
		if len(in.uni) != 1 || len(in.uni) != cap(in.uni) {
			t.Fatalf("node %v unicast segment len %d cap %d: not an exactly-sized segment",
				st.id, len(in.uni), cap(in.uni))
		}
	}
	// The sparse invariant itself: materialized Received values are
	// B + U, not n·(B+U)/receiver fan-out.
	if got, want := len(net.bcastBlock)+len(net.uniArena), n+n; got != want {
		t.Fatalf("materialized %d Received values, want O(B+U) = %d", got, want)
	}
}

// The engine's scratch recycling must keep rounds independent: messages
// from round r must never leak into round r+1 inboxes and vice versa,
// even as the backing arrays are reused.
func TestRecycledBuffersDoNotLeakAcrossRounds(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	sender := newRecorder(1,
		func(env *RoundEnv) { env.Broadcast(body("r1-a")); env.Broadcast(body("r1-b")) },
		func(env *RoundEnv) { env.Broadcast(body("r2-only")) },
		nil,
	)
	sink := newRecorder(2)
	if err := net.Add(sender); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(sink); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 3)
	if len(sink.received[1]) != 2 {
		t.Fatalf("round-2 inbox = %+v, want the two round-1 broadcasts", sink.received[1])
	}
	if len(sink.received[2]) != 1 || sink.received[2][0].encoded != string(wire.Encode(body("r2-only"))) {
		t.Fatalf("round-3 inbox = %+v, want exactly the round-2 broadcast", sink.received[2])
	}
}
