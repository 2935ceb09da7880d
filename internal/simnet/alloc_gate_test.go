package simnet

import (
	"fmt"
	"testing"
)

// TestRouteHotPathZeroAlloc is the runtime half of the //lint:noalloc
// contract on the round hot path: after the warm-up rounds that grow
// the recycled arenas to their high-water mark, a steady-state
// account + route pass must perform zero heap allocations per round,
// for inline dispatch (workers=1) and real three-worker dispatch,
// across three network sizes.
//
// The plan=idle variants re-certify the same bound with a fault plan
// attached but never live: plan presence routes through the
// fault-aware branches (scratch resets, the keyed delivery copy), and
// those must be as allocation-free as the nil-plan path — attaching a
// FaultPlan may never cost a healthy round an allocation.
//
// The measured body is RouteOnly minus the Collector flush: AddRound
// appends one RoundStats to the report's per-round ledger every round,
// which is genuinely amortized O(1) allocation — the ledger is a
// product of the run, not round scratch — and is deliberately outside
// the noalloc certification (it carries no //lint:noalloc directive).
func TestRouteHotPathZeroAlloc(t *testing.T) {
	for _, plan := range []*FaultPlan{nil, {Seed: 1}} {
		label := "plan=nil"
		if plan != nil {
			label = "plan=idle"
		}
		// The subtest labels predate the single step path and are kept
		// stable for CI history: concurrent=false is workers=1 (inline
		// dispatch), concurrent=true is a forced three-worker dispatch.
		for _, workers := range []int{1, 3} {
			for _, n := range []int{256, 1024, 4096} {
				t.Run(fmt.Sprintf("%s/concurrent=%v/n=%d", label, workers > 1, n), func(t *testing.T) {
					rp, err := NewRoundPhasesPlan(n, workers, plan)
					if err != nil {
						t.Fatal(err)
					}
					defer rp.Close()
					rp.net.forceWorkers(workers)
					// Warm-up: grow the broadcast block, unicast arena, shard
					// table and done mask to their steady-state sizes, and let
					// the runtime's channel/park caches populate for the
					// multi-worker dispatch.
					for i := 0; i < 3; i++ {
						rp.RouteOnly()
					}
					var deliveries, bcasts int64
					avg := testing.AllocsPerRun(100, func() {
						rp.net.round++
						outs := rp.scratch[:len(rp.template)]
						copy(outs, rp.template)
						acct := rp.net.accountRound(outs)
						deliveries, _ = rp.net.route(outs)
						bcasts = acct.Broadcasts
					})
					if deliveries != int64(n)*int64(n) || bcasts != int64(n) {
						t.Fatalf("fixture routed %d deliveries / %d broadcasts per round, want n^2 = %d / n = %d",
							deliveries, bcasts, int64(n)*int64(n), n)
					}
					if avg != 0 {
						t.Errorf("steady-state route at n=%d (workers=%d, %s) allocates %.2f times per round, want 0 — the //lint:noalloc contract is broken at runtime", n, workers, label, avg)
					}
				})
			}
		}
	}
}
