package simnet

import (
	"testing"

	"uba/internal/trace"
)

// statsRecorder captures every RoundAccounting the engine hands to a
// RoundStatsObserver.
type statsRecorder struct {
	rounds []int
	accts  []RoundAccounting
}

func (r *statsRecorder) ObserveRound(round int, events []trace.Event) {}

func (r *statsRecorder) ObserveRoundStats(round int, acct RoundAccounting) {
	r.rounds = append(r.rounds, round)
	r.accts = append(r.accts, acct)
}

// TestRoundAccountingSplit pins the broadcast/unicast split and the
// per-correct-node maxima: a correct broadcaster, a correct unicaster
// with two targets, a silent correct node, and a flooding Byzantine
// node whose sends count in the totals but not the correct maxima. Round
// 1 introduces the unicaster's targets; round 2 is the one pinned.
func TestRoundAccountingSplit(t *testing.T) {
	t.Parallel()
	rec := &statsRecorder{}
	net := New(Config{Observer: rec})
	a := newRecorder(1, hello, func(env *RoundEnv) { env.Broadcast(body("a")) })
	b := newRecorder(2, nil, func(env *RoundEnv) {
		env.Send(1, body("b1"))
		env.Send(3, body("b2"))
	})
	c := newRecorder(3, hello)
	for _, p := range []*recorder{a, b, c} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	byz := newRecorder(4, nil, func(env *RoundEnv) {
		for i := 0; i < 5; i++ {
			env.Broadcast(body("flood"))
		}
		env.Send(1, body("poke"))
	})
	if err := net.AddByzantine(byz); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 2)
	if len(rec.accts) != 2 {
		t.Fatalf("observer saw %d rounds, want 2", len(rec.accts))
	}
	acct := rec.accts[1]
	if acct.Broadcasts != 6 || acct.Unicasts != 3 {
		t.Errorf("split = %d broadcasts, %d unicasts; want 6, 3", acct.Broadcasts, acct.Unicasts)
	}
	if acct.Nodes != 4 {
		t.Errorf("Nodes = %d, want 4", acct.Nodes)
	}
	// The Byzantine flooder (5 broadcasts, 1 unicast) must not move the
	// correct maxima: the largest correct tallies are a's 1 broadcast
	// and b's 2 unicasts.
	if acct.CorrectMaxBroadcasts != 1 || acct.CorrectMaxUnicasts != 2 {
		t.Errorf("correct maxima = %d broadcasts, %d unicasts; want 1, 2",
			acct.CorrectMaxBroadcasts, acct.CorrectMaxUnicasts)
	}
	// Broadcast dedup fans each distinct broadcast to all 4 nodes; the
	// flooder's 5 identical bodies dedup to one delivered copy each.
	if acct.Deliveries == 0 || acct.Bytes == 0 {
		t.Errorf("deliveries/bytes not filled: %+v", acct)
	}
}

// TestRoundAccountingMatchesCollector checks the split the observer
// sees is the same one the trace collector records.
func TestRoundAccountingMatchesCollector(t *testing.T) {
	t.Parallel()
	rec := &statsRecorder{}
	var col trace.Collector
	net := New(Config{Observer: rec, Collector: &col})
	a := newRecorder(1, func(env *RoundEnv) { env.Broadcast(body("x")) })
	b := newRecorder(2, nil, func(env *RoundEnv) { env.Send(1, body("y")) })
	for _, p := range []*recorder{a, b} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 2)
	rep := col.Report()
	if len(rec.accts) != 2 || len(rep.PerRound) != 2 {
		t.Fatalf("observer saw %d rounds, collector %d, want 2", len(rec.accts), len(rep.PerRound))
	}
	for i, acct := range rec.accts {
		got := rep.PerRound[i]
		if got.Broadcasts != acct.Broadcasts || got.Unicasts != acct.Unicasts {
			t.Errorf("round %d: collector split %d/%d, observer split %d/%d",
				i+1, got.Broadcasts, got.Unicasts, acct.Broadcasts, acct.Unicasts)
		}
		if got.Sends != acct.Broadcasts+acct.Unicasts {
			t.Errorf("round %d: Sends = %d, want %d", i+1, got.Sends, acct.Broadcasts+acct.Unicasts)
		}
	}
	if rec.accts[1].Unicasts != 1 {
		t.Errorf("round 2 observer split has %d unicasts, want 1", rec.accts[1].Unicasts)
	}
}
