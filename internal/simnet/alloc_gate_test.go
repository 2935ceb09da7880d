package simnet

import (
	"fmt"
	"math/rand"
	"testing"

	"uba/internal/allocgate"
	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// discardObserver is the observer=on variants' observer: it takes the
// round record and drops it.
type discardObserver struct{}

func (discardObserver) ObserveRound(int, []trace.Event) {}

// statsObserver is the observer=stats variants' observer: like an oracle
// suite whose oracles read only the round's accounting, it takes the
// ledger and declines the message events.
type statsObserver struct{ discardObserver }

func (statsObserver) ReadsMessages() bool                    { return false }
func (statsObserver) ObserveRoundStats(int, RoundAccounting) {}

// TestRouteHotPathZeroAlloc is the allocation contract of the round
// hot path: after the warm-up rounds that grow the recycled arenas to
// their high-water mark, a steady-state
// finishRound — the tail of RunRound, account + route + observe — must
// perform zero heap allocations per round, at a worker cap of 1 and of
// 3 (the pass is serial under both: a cap must not bring the scheduler,
// or an allocation, into it), across three network sizes. The step
// dispatch has its own gate, TestSteadyStateDispatchDoesNotAllocate
// (internal/simnet/sched).
//
// The plan=idle variants re-certify the same bound with a fault plan
// attached but never live: plan presence routes through the
// fault-aware branches (scratch resets, the keyed delivery copy), and
// those must be as allocation-free as the nil-plan path — attaching a
// FaultPlan may never cost a healthy round an allocation.
//
// The observer=on variants certify an observed round: the round record
// — one message event per stored message, n for this fixture's n²
// deliveries — is built in recycled scratch and handed to a discarding
// observer, so observation costs a steady-state round no allocation
// either.
//
// The observer=stats variants certify an observed round whose observer
// reads no message event (MessageReader): the round record holds the
// engine events alone — none, on this fault-free fixture — and the
// observer gets the round's accounting instead, also without an
// allocation.
//
// The reader=said variants certify a round that is read payload-major:
// after the route one receiver asks for Inbox.Said, so the measured body
// also builds the block's index — sender list, group headers, slab —
// and that build, too, runs in recycled scratch. The other variants
// never ask, and their rounds never build it.
//
// The measured body is RouteOnly minus the Collector flush: AddRound
// appends one RoundStats to the report's per-round ledger every round,
// which is genuinely amortized O(1) allocation — the ledger is a
// product of the run, not round scratch — and is deliberately outside
// the zero-alloc contract.
func TestRouteHotPathZeroAlloc(t *testing.T) {
	for _, variant := range []struct {
		label string
		cfg   Config
	}{
		{"plan=nil", Config{}},
		{"plan=idle", Config{FaultPlan: &FaultPlan{Seed: 1}}},
		{"observer=on", Config{Observer: discardObserver{}}},
		{"observer=stats", Config{Observer: statsObserver{}}},
		{"reader=said", Config{}},
	} {
		label := variant.label
		for _, workers := range []int{1, 3} {
			for _, n := range []int{256, 1024, 4096} {
				t.Run(fmt.Sprintf("%s/workers=%d/n=%d", label, workers, n), func(t *testing.T) {
					cfg := variant.cfg
					cfg.Workers = workers
					rp, err := NewRoundPhases(n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer rp.Close()
					rp.net.forceWorkers(workers)
					built := rp.net.index.builds // a recycled index has a past
					said := 0
					var acct RoundAccounting
					round := func() {
						acct = rp.net.finishRound(rp.nextSends())
						if label == "reader=said" {
							said = len(rp.Inbox().Said())
						}
					}
					// Warm-up: grow the broadcast block, unicast arena, done
					// mask and round record to their steady-state sizes.
					for i := 0; i < 3; i++ {
						round()
					}
					allocs := allocgate.Count(100, round)
					if acct.Deliveries != int64(n)*int64(n) || acct.Broadcasts != int64(n) {
						t.Fatalf("fixture routed %d deliveries / %d broadcasts per round, want n^2 = %d / n = %d",
							acct.Deliveries, acct.Broadcasts, int64(n)*int64(n), n)
					}
					// Nothing is recorded for a round nobody observes, nor
					// for an observer that reads no message event.
					record := 0
					if label == "observer=on" {
						record = n
					}
					if len(rp.net.roundEvents) != record {
						t.Fatalf("round record holds %d events, want %d", len(rp.net.roundEvents), record)
					}
					builds := 0 // 3 warm-up rounds, one for Count's own, 100 measured
					if label == "reader=said" {
						builds = 3 + 1 + 100
						if said != 1 {
							t.Fatalf("reader saw %d distinct payloads in a round of one", said)
						}
					}
					if got := rp.net.index.builds - built; got != builds {
						t.Fatalf("index built %d times, want %d", got, builds)
					}
					if allocs != 0 {
						t.Errorf("steady-state route at n=%d (workers=%d, %s) allocated %d times over 100 rounds, want 0", n, workers, label, allocs)
					}
				})
			}
		}
	}
}

// sayer broadcasts k payloads a round, values [0, k) when even and
// [1, k] when odd, and all k + 1 when extra is set. In round 1 only
// the lead speaks, and says all k + 1, so its own send buffers have room
// for its extra round.
type sayer struct {
	id               ids.ID
	k                int
	odd, lead, extra bool
}

func (s *sayer) ID() ids.ID { return s.id }
func (s *sayer) Done() bool { return false }
func (s *sayer) Step(env *RoundEnv) {
	if env.Round == 1 && !s.lead {
		return
	}
	skip := s.k // the one value of [0, k] it leaves out
	if s.odd {
		skip = 0
	}
	for x := 0; x <= s.k; x++ {
		if x != skip || s.extra || env.Round == 1 {
			env.Broadcast(wire.Input{X: wire.V(float64(x))})
		}
	}
}

// A round that broadcasts once more than any round before it reuses the
// broadcast block and its ranks: they are sized from the capacity of
// the round's broadcast index list, which append grows geometrically,
// not to the exact count, which would reallocate them at every new
// maximum — a cold n = 128 consensus run has 7,396 broadcasts in one
// round and 7,397 in a later one. After warm rounds of B = 86 · 86 =
// 7,396 broadcasts (the index list then has room for 8,192), a round of
// B + 1 allocates nothing.
func TestOneMoreBroadcastAllocatesNothing(t *testing.T) {
	const n, k = 86, 86
	net := New(Config{})
	defer net.Close()
	sayers := make([]*sayer, n)
	for i, id := range ids.Sparse(rand.New(rand.NewSource(3)), n) {
		sayers[i] = &sayer{id: id, k: k, odd: i%2 == 1, lead: i == 0}
		if err := net.Add(sayers[i]); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if len(net.bcastIdx) != n*k || cap(net.bcastIdx) <= n*k {
		t.Fatalf("a warm round holds %d broadcasts with room for %d, want %d with room for more", len(net.bcastIdx), cap(net.bcastIdx), n*k)
	}
	// Count's warm-up call runs one more round of B; the measured call
	// runs the round of B + 1.
	allocs := allocgate.Count(1, func() {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
		sayers[0].extra = true
	})
	if len(net.bcastIdx) != n*k+1 {
		t.Fatalf("the measured round routed %d broadcasts, want %d", len(net.bcastIdx), n*k+1)
	}
	if allocs != 0 {
		t.Fatalf("a round of one broadcast more than the warm ones allocated %d times, want 0", allocs)
	}
}
