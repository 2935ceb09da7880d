package simnet

import (
	"fmt"
	"runtime"
	"testing"
)

// benchNs are the system sizes the full-round benchmarks sweep. The
// paper's protocols are Ω(n²)-message by design, so the top sizes are
// where the shared broadcast block earns its keep.
var benchNs = []int{32, 128, 256, 512, 1024, 2048}

// phaseNs are the sizes the step-vs-route phase-split benchmarks sweep
// (n=256 is the size the CI perf smoke tracks).
var phaseNs = []int{256, 512, 1024}

// BenchmarkRoundEngine is the canonical broadcast-heavy hot-path bench:
// every node broadcasts every round, so one op is one round with n sends
// and n² deliveries through dedup, routing, and traffic accounting.
// `make bench-json` records the same workload at n=256 in
// BENCH_simnet.json, which CI gates; the sweep here is ad hoc.
func BenchmarkRoundEngine(b *testing.B) {
	for _, wc := range workerCaps() {
		for _, n := range benchNs {
			b.Run(fmt.Sprintf("workers=%s/n=%d", wc.label, n), func(b *testing.B) {
				benchRounds(b, n, wc.workers)
			})
		}
	}
}

// workerCaps are the two Config.Workers values the benchmarks compare,
// keyed by row label: inline stepping, and a step phase spread over
// GOMAXPROCS workers ("max", so a row keeps its name across hosts).
func workerCaps() []workerCap {
	return []workerCap{{"1", 1}, {"max", runtime.GOMAXPROCS(0)}}
}

type workerCap struct {
	label   string
	workers int
}

func benchRounds(b *testing.B, n, workers int) {
	net, _, err := NewBroadcastBench(n, b.N+2, workers)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	// One warm-up round sizes the shared broadcast block, the unicast
	// arena, and the per-sender scratch outside the timed region, so
	// low-iteration runs measure the steady-state per-round cost, not a
	// one-time page-in.
	if err := net.RunRound(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepPhase measures only the step half of a round (process
// state machines plus the node-order merge), isolating it from routing,
// at both worker caps.
func BenchmarkStepPhase(b *testing.B) {
	for _, wc := range workerCaps() {
		b.Run("workers="+wc.label, func(b *testing.B) {
			benchPhase(b, wc.workers, (*RoundPhases).StepOnly)
		})
	}
}

// BenchmarkRoutePhase measures only the routing/delivery half: block
// sort, dedup, arena sizing, fan-out, accounting. It is serial whatever
// the worker cap, so there is one row per size.
func BenchmarkRoutePhase(b *testing.B) {
	benchPhase(b, 1, func(rp *RoundPhases) error { rp.RouteOnly(); return nil })
}

// campaignChunk is how many rounds each simulation advances per
// campaign benchmark op: enough that dispatch cost amortizes the way it
// does in a real campaign cell, small enough that one op stays cheap.
const campaignChunk = 4

// BenchmarkCampaign measures aggregate campaign throughput: jobs
// independent one-worker simulations multiplexed over one bounded
// scheduler. One op advances every simulation by campaignChunk rounds,
// so rows with the same n are directly comparable — jobs× the rounds
// for (ideally) the same wall time, up to the worker budget. `make
// bench-json` records the jobs=4 row in BENCH_simnet.json.
func BenchmarkCampaign(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d/n=256", jobs), func(b *testing.B) {
			cb, err := NewCampaignBench(jobs, 256)
			if err != nil {
				b.Fatal(err)
			}
			defer cb.Close()
			// Warm-up op: sizes every network's round buffers and the
			// campaign phase's completion channel (see benchRounds).
			if err := cb.RunChunk(campaignChunk); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cb.RunChunk(campaignChunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchPhase(b *testing.B, workers int, op func(*RoundPhases) error) {
	for _, n := range phaseNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rp, err := NewRoundPhases(n, Config{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer rp.Close()
			// Warm-up: the first route pass sizes the delivery
			// buffers; keep that outside the timed region (see
			// benchRounds).
			if err := op(rp); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(rp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
