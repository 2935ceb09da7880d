package simnet

import (
	"fmt"
	"testing"

	"uba/internal/allocgate"
	"uba/internal/trace"
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
