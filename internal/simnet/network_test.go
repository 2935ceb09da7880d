package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// recorder is a test process that logs everything it receives and replays
// a scripted sequence of send actions, one script entry per round.
type recorder struct {
	id       ids.ID
	script   []func(env *RoundEnv)
	received [][]Received
	done     bool
}

func (p *recorder) ID() ids.ID { return p.id }
func (p *recorder) Done() bool { return p.done }

func (p *recorder) Step(env *RoundEnv) {
	p.received = append(p.received, slices.Collect(env.Inbox.All()))
	if len(p.script) > 0 {
		action := p.script[0]
		p.script = p.script[1:]
		if action != nil {
			action(env)
		}
	}
}

func newRecorder(id ids.ID, script ...func(env *RoundEnv)) *recorder {
	return &recorder{id: id, script: script}
}

func body(s string) wire.Payload { return wire.Event{Round: 1, Body: []byte(s)} }

// hello is a round-1 script entry that introduces a node to every other
// one: after its broadcast, anyone may unicast to it.
func hello(env *RoundEnv) { env.Broadcast(body("hello")) }

func TestBroadcastReachesEveryoneIncludingSelf(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("x")) })
	b := newRecorder(2)
	c := newRecorder(3)
	for _, p := range []*recorder{a, b, c} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.RunRound(); err != nil {
		t.Fatal(err)
	}
	if err := net.RunRound(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*recorder{a, b, c} {
		if len(p.received) != 2 {
			t.Fatalf("node %v stepped %d times", p.id, len(p.received))
		}
		if len(p.received[0]) != 0 {
			t.Fatalf("node %v received before anything was sent", p.id)
		}
		if len(p.received[1]) != 1 || p.received[1][0].From != 1 {
			t.Fatalf("node %v round-2 inbox = %+v", p.id, p.received[1])
		}
	}
}

func TestUnicastDeliversOnlyToTarget(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	a := newRecorder(1, nil, func(env *RoundEnv) { env.Send(3, body("direct")) })
	b := newRecorder(2)
	c := newRecorder(3, hello)
	for _, p := range []*recorder{a, b, c} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 3)
	if len(c.received[2]) != 1 {
		t.Fatalf("target inbox = %+v", c.received[2])
	}
	if len(a.received[2]) != 0 || len(b.received[2]) != 0 {
		t.Fatal("unicast leaked to non-targets")
	}
}

func TestSenderIDIsStampedByEngine(t *testing.T) {
	t.Parallel()
	// A Byzantine process sends a payload *claiming* to relay from
	// source 99, but the transport-level From must be its own id.
	net := New(Config{})
	byz := newRecorder(5, func(env *RoundEnv) {
		env.Broadcast(wire.RBMessage{Source: 99, Body: []byte("forged")})
	})
	honest := newRecorder(1)
	if err := net.AddByzantine(byz); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(honest); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 2)
	got := honest.received[1]
	if len(got) != 1 {
		t.Fatalf("inbox = %+v", got)
	}
	if got[0].From != 5 {
		t.Fatalf("From = %v, want the true sender 5", got[0].From)
	}
	rb, ok := got[0].Payload.(wire.RBMessage)
	if !ok || rb.Source != 99 {
		t.Fatalf("payload content altered: %+v", got[0].Payload)
	}
}

func TestIntraRoundDuplicatesDiscarded(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	spammer := newRecorder(1, nil, func(env *RoundEnv) {
		env.Broadcast(body("dup"))
		env.Broadcast(body("dup"))
		env.Send(2, body("dup"))
		env.Broadcast(body("other"))
	})
	sink := newRecorder(2, hello)
	if err := net.Add(spammer); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(sink); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 3)
	if len(sink.received[2]) != 2 {
		t.Fatalf("inbox = %+v, want exactly the two distinct payloads", sink.received[2])
	}
}

func TestCrossRoundRepeatsAreDelivered(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	sender := newRecorder(1,
		func(env *RoundEnv) { env.Broadcast(body("again")) },
		func(env *RoundEnv) { env.Broadcast(body("again")) },
	)
	sink := newRecorder(2)
	if err := net.Add(sender); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(sink); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 3)
	if len(sink.received[1]) != 1 || len(sink.received[2]) != 1 {
		t.Fatalf("cross-round repeat dropped: %+v / %+v", sink.received[1], sink.received[2])
	}
}

func TestDoneProcessStopsSteppingAndReceiving(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	quitter := newRecorder(1)
	quitter.script = []func(env *RoundEnv){
		func(env *RoundEnv) { quitter.done = true },
	}
	chatter := newRecorder(2,
		func(env *RoundEnv) { env.Broadcast(body("r1")) },
		func(env *RoundEnv) { env.Broadcast(body("r2")) },
	)
	if err := net.Add(quitter); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(chatter); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 3)
	if len(quitter.received) != 1 {
		t.Fatalf("done process stepped %d times, want 1", len(quitter.received))
	}
}

func TestRemoveDropsProcessAndPendingMail(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("bye")) })
	b := newRecorder(2)
	if err := net.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(b); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 1)
	net.Remove(2)
	mustRounds(t, net, 1)
	if len(b.received) != 1 {
		t.Fatalf("removed process stepped %d times, want 1", len(b.received))
	}
	if net.Size() != 1 || net.Process(2) != nil {
		t.Fatal("Remove did not detach process")
	}
	if net.Process(1) == nil {
		t.Fatal("surviving process lost")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	if err := net.Add(newRecorder(1)); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(newRecorder(1)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
	if err := net.Add(newRecorder(ids.None)); err == nil {
		t.Fatal("zero id accepted")
	}
}

func TestContactRuleEnforcement(t *testing.T) {
	t.Parallel()
	// Node 1 unicasts to node 2 without ever hearing from it: violation.
	net := New(Config{})
	a := newRecorder(1, func(env *RoundEnv) { env.Send(2, body("hi")) })
	b := newRecorder(2)
	if err := net.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := net.RunRound(); !errors.Is(err, ErrContactRule) {
		t.Fatalf("err = %v, want ErrContactRule", err)
	}
	// The network latches the error.
	if err := net.RunRound(); !errors.Is(err, ErrContactRule) {
		t.Fatalf("subsequent RunRound err = %v", err)
	}
}

func TestContactRuleAllowsReply(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("hello")) }, nil)
	b := newRecorder(2, nil, func(env *RoundEnv) { env.Send(1, body("reply")) })
	if err := net.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(b); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 3)
	if len(a.received[2]) != 1 {
		t.Fatalf("reply not delivered: %+v", a.received)
	}
}

func TestContactRuleExemptsByzantine(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	byz := newRecorder(9, func(env *RoundEnv) { env.Send(1, body("sneak")) })
	honest := newRecorder(1)
	if err := net.AddByzantine(byz); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(honest); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 2)
	if len(honest.received[1]) != 1 {
		t.Fatal("byzantine unicast blocked; should be exempt from contact rule")
	}
}

func TestRunStopsOnPredicate(t *testing.T) {
	t.Parallel()
	net := New(Config{MaxRounds: 50})
	if err := net.Add(newRecorder(1)); err != nil {
		t.Fatal(err)
	}
	rounds, err := net.Run(func(n *Network) bool { return n.Round() >= 5 })
	if err != nil || rounds != 5 {
		t.Fatalf("Run = (%d, %v), want (5, nil)", rounds, err)
	}
}

func TestRunHitsRoundLimit(t *testing.T) {
	t.Parallel()
	net := New(Config{MaxRounds: 7})
	if err := net.Add(newRecorder(1)); err != nil {
		t.Fatal(err)
	}
	rounds, err := net.Run(func(*Network) bool { return false })
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if rounds != 7 {
		t.Fatalf("rounds = %d, want 7", rounds)
	}
}

func TestAllDonePredicate(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	p1 := newRecorder(1)
	p2 := newRecorder(2)
	if err := net.Add(p1); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(p2); err != nil {
		t.Fatal(err)
	}
	pred := AllDone([]ids.ID{1, 2})
	if pred(net) {
		t.Fatal("predicate true before termination")
	}
	p1.done = true
	if pred(net) {
		t.Fatal("predicate true with one process live")
	}
	p2.done = true
	if !pred(net) {
		t.Fatal("predicate false after all done")
	}
	// Removed processes count as finished.
	net.Remove(1)
	if !pred(net) {
		t.Fatal("predicate false after removal")
	}
}

func TestTraceAccounting(t *testing.T) {
	t.Parallel()
	var col trace.Collector
	net := New(Config{Collector: &col})
	payload := body("acct")
	size := len(wire.Encode(payload))
	a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(payload) })
	b := newRecorder(2)
	c := newRecorder(3)
	for _, p := range []*recorder{a, b, c} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 1)
	r := col.Report()
	if r.Sends != 1 {
		t.Fatalf("Sends = %d, want 1 (one broadcast op)", r.Sends)
	}
	if r.Deliveries != 3 {
		t.Fatalf("Deliveries = %d, want 3 (fan-out to all nodes)", r.Deliveries)
	}
	if r.Bytes != int64(3*size) {
		t.Fatalf("Bytes = %d, want %d", r.Bytes, 3*size)
	}
}

func TestInboxIsSortedBySenderThenEncoding(t *testing.T) {
	t.Parallel()
	net := New(Config{})
	// Senders registered and acting in an order different from id order.
	s3 := newRecorder(30, func(env *RoundEnv) { env.Broadcast(body("c")) })
	s1 := newRecorder(10, func(env *RoundEnv) {
		env.Broadcast(body("b"))
		env.Broadcast(body("a"))
	})
	sink := newRecorder(5)
	for _, p := range []*recorder{s3, s1, sink} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 2)
	inbox := sink.received[1]
	if len(inbox) != 3 {
		t.Fatalf("inbox size = %d", len(inbox))
	}
	if inbox[0].From != 10 || inbox[1].From != 10 || inbox[2].From != 30 {
		t.Fatalf("inbox not sorted by sender: %+v", inbox)
	}
	if inbox[0].encoded > inbox[1].encoded {
		t.Fatal("inbox not sorted by encoding within sender")
	}
}

// gossip is a deterministic pseudo-random protocol used to compare
// worker counts on a non-trivial execution.
type gossip struct {
	id    ids.ID
	rng   *rand.Rand
	peers []ids.ID
	log   []string
	round int
}

func (g *gossip) ID() ids.ID { return g.id }
func (g *gossip) Done() bool { return g.round >= 8 }

func (g *gossip) Step(env *RoundEnv) {
	g.round++
	for m := range env.Inbox.All() {
		g.log = append(g.log, fmt.Sprintf("%d<-%d:%x", env.Round, m.From, m.encoded))
	}
	if env.Round == 1 {
		hello(env) // every peer is a contact from round 2 on
		return
	}
	// Deterministic pseudo-random behaviour seeded per node: broadcast
	// sometimes, unicast sometimes.
	switch g.rng.Intn(3) {
	case 0:
		env.Broadcast(wire.Event{Round: uint64(env.Round), Body: []byte{byte(g.rng.Intn(4))}})
	case 1:
		target := g.peers[g.rng.Intn(len(g.peers))]
		env.Send(target, wire.Event{Round: uint64(env.Round), Body: []byte{byte(g.rng.Intn(4))}})
	default:
		// stay silent
	}
}

func runGossip(t *testing.T, workers int, seed int64) map[ids.ID][]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodeIDs := ids.Sparse(rng, 12)
	net := New(Config{Workers: workers, MaxRounds: 20})
	defer net.Close()
	procs := make([]*gossip, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		g := &gossip{
			id:    id,
			rng:   rand.New(rand.NewSource(seed + int64(i) + 1)),
			peers: nodeIDs,
		}
		procs = append(procs, g)
		if err := net.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(AllDone(nodeIDs)); err != nil {
		t.Fatal(err)
	}
	out := make(map[ids.ID][]string, len(procs))
	for _, g := range procs {
		out[g.id] = g.log
	}
	return out
}

// The observable execution (every delivery at every node, in order) must
// be identical for every Config.Workers value: inline stepping (1) and
// stepping on the shared scheduler (2, 3, 5).
func TestWorkerCountsAgree(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		base := runGossip(t, 1, seed)
		for _, workers := range []int{2, 3, 5} {
			got := runGossip(t, workers, seed)
			if len(got) != len(base) {
				t.Fatalf("seed %d workers=%d: node count mismatch", seed, workers)
			}
			for id, want := range base {
				if !slices.Equal(got[id], want) {
					t.Fatalf("seed %d workers=%d node %v: delivery logs differ:\n  workers=1: %q\n  got:       %q",
						seed, workers, id, want, got[id])
				}
			}
		}
	}
}

// Property: for random small topologies and scripts, a broadcast in round
// r is received exactly once by every live node in round r+1.
func TestQuickBroadcastDeliveryProperty(t *testing.T) {
	t.Parallel()
	prop := func(nRaw, senderRaw uint8) bool {
		n := int(nRaw%6) + 2
		senderIdx := int(senderRaw) % n
		nodeIDs := ids.Consecutive(100, n)
		net := New(Config{})
		recs := make([]*recorder, n)
		for i, id := range nodeIDs {
			var script []func(env *RoundEnv)
			if i == senderIdx {
				script = append(script, func(env *RoundEnv) { env.Broadcast(body("p")) })
			}
			recs[i] = newRecorder(id, script...)
			if err := net.Add(recs[i]); err != nil {
				return false
			}
		}
		if err := net.RunRound(); err != nil {
			return false
		}
		if err := net.RunRound(); err != nil {
			return false
		}
		for _, rec := range recs {
			if len(rec.received[1]) != 1 || rec.received[1][0].From != nodeIDs[senderIdx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustRounds(t *testing.T, net *Network, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if err := net.RunRound(); err != nil {
			t.Fatalf("round %d: %v", net.Round(), err)
		}
	}
}

func TestEventLogRecordsDeliveries(t *testing.T) {
	t.Parallel()
	log := trace.NewEventLog(100)
	net := New(Config{EventLog: log})
	a := newRecorder(1, nil, func(env *RoundEnv) {
		env.Broadcast(body("x"))
		env.Send(2, body("y"))
	})
	b := newRecorder(2, hello)
	if err := net.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(b); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 3)
	events := log.Events()
	// Round 2: b's hello to both nodes. Round 3: a's broadcast to 2
	// nodes + 1 unicast = 3 deliveries.
	if len(events) != 5 {
		t.Fatalf("recorded %d events, want 5: %+v", len(events), events)
	}
	for _, e := range events[:2] {
		if e.Round != 2 || e.From != 2 || !e.Broadcast {
			t.Fatalf("bad hello event %+v", e)
		}
	}
	broadcasts, unicasts := 0, 0
	for _, e := range events[2:] {
		if e.Round != 3 || e.From != 1 || e.Kind != "event" || e.Size == 0 {
			t.Fatalf("bad event %+v", e)
		}
		if e.Broadcast {
			broadcasts++
		} else {
			unicasts++
		}
	}
	if broadcasts != 2 || unicasts != 1 {
		t.Fatalf("broadcasts=%d unicasts=%d", broadcasts, unicasts)
	}
}

// TestSentPayloadIsImmutableAfterSend holds the model's "never alters a
// delivered message" against the sender itself: node 1 broadcasts a
// message whose body is its own buffer, and in its next Step rewrites
// the buffer, before node 2 reads what it was delivered in the same
// round. Send takes the payload's bytes and a receiver gets the engine's
// decoded copy, so node 2 reads the original body. With a worker cap of
// 3 the rewrite and the read run on different goroutines, where sharing
// the buffer would also be a data race.
func TestSentPayloadIsImmutableAfterSend(t *testing.T) {
	t.Parallel()
	for _, kind := range []struct {
		label string
		wrap  func(body []byte) wire.Payload
	}{
		{"event", func(b []byte) wire.Payload { return wire.Event{Round: 1, Body: b} }},
		{"rbmessage", func(b []byte) wire.Payload { return wire.RBMessage{Source: 1, Body: b} }},
	} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", kind.label, workers), func(t *testing.T) {
				t.Parallel()
				buf := []byte("ORIGINAL")
				net := New(Config{})
				if workers > 1 {
					net.forceWorkers(workers)
				}
				defer net.Close()
				sender := newRecorder(1,
					func(env *RoundEnv) { env.Broadcast(kind.wrap(buf)) },
					func(env *RoundEnv) { copy(buf, "MUTATED!") })
				var read []string
				reader := newRecorder(2, nil, func(env *RoundEnv) {
					for m := range env.Inbox.All() {
						switch p := m.Payload.(type) {
						case wire.Event:
							read = append(read, string(p.Body))
						case wire.RBMessage:
							read = append(read, string(p.Body))
						}
					}
				})
				for _, p := range []*recorder{sender, reader} {
					if err := net.Add(p); err != nil {
						t.Fatal(err)
					}
				}
				mustRounds(t, net, 2)
				if string(buf) != "MUTATED!" {
					t.Fatalf("premise: the sender's buffer reads %q after its rewrite", buf)
				}
				if len(read) != 1 || read[0] != "ORIGINAL" {
					t.Fatalf("receiver read %q, want the body as sent, [\"ORIGINAL\"]", read)
				}
			})
		}
	}
}
