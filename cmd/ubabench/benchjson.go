package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"uba"
	"uba/internal/chaos"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// routeSizes are the sizes of the plain route rows: the perf-gate size
// n=256 and the two sizes the zero-alloc gate (internal/simnet
// alloc_gate_test.go) certifies at run time.
var routeSizes = []int{256, 1024, 4096}

// readerSizes are the sizes of the reader=said route rows: a round whose
// block is read payload-major.
var readerSizes = []int{256, 1024}

// e2eFamilySize is the size of the end-to-end rows of the families on the
// ladder: whole runs through the public entry point, the thing a user
// waits for.
const e2eFamilySize = 256

// e2eParallelSize is the size of the Algorithm 5 rows — uba.
// ParallelConsensus and uba.InteractiveConsistency, which runs one
// instance per node and is the one entry point that is cubic in n.
const e2eParallelSize = 128

// e2eWorkersSize is the size of the uba.Consensus row pair that prices
// Config.Workers end to end: the same run stepped inline and by two
// goroutines. The pair is the knob's measured justification.
const e2eWorkersSize = 1024

// engineBenchResult is one row of BENCH_simnet.json. The name carries
// every dimension of the row (phase, workers, jobs, variant).
type engineBenchResult struct {
	Name string `json:"name"`
	// N is the system size; one op is one full round (n broadcasts,
	// n² deliveries), one phase of it, for campaign rows a
	// campaignChunk-round advance of every concurrent simulation, or —
	// for e2e rows — one whole protocol run.
	N int `json:"n"`
	// Iterations is the row's fixed count of timed ops.
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// ColdNs and ColdBytes are the untimed warm-up op that precedes the
	// timed ones: the first op on a fresh fixture.
	ColdNs    int64 `json:"cold_ns"`
	ColdBytes int64 `json:"cold_bytes"`
}

// engineBenchFile is the schema of BENCH_simnet.json, the committed
// perf-trajectory baseline for the simnet round engine.
type engineBenchFile struct {
	Description string              `json:"description"`
	GoVersion   string              `json:"go_version"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Benchmarks  []engineBenchResult `json:"benchmarks"`
}

// benchSpec is one row: its name, the system size, the fixed number of
// timed ops, and setup, which builds the row's fixture and returns one op
// on it and the fixture's release. The op count is a property of the
// spec, never of a timing, so every run of a row times the same work.
type benchSpec struct {
	name  string
	n     int
	ops   int
	setup func() (op func() error, done func(), err error)
}

// maxWorkers stands for a worker count of GOMAXPROCS, read when the
// fixture is built, on the "workers=max" rows, whose names must not
// depend on the host that measured them.
const maxWorkers = 0

// workerCounts are the two counts the chatter rows compare: inline
// stepping and a step phase spread over every processor.
var workerCounts = []int{1, maxWorkers}

func workerCount(workers int) int {
	if workers == maxWorkers {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

func workersLabel(workers int) string {
	if workers == maxWorkers {
		return "max"
	}
	return strconv.Itoa(workers)
}

// roundOps is the op count of a chatter row at size n: a fixed budget of
// node-rounds, about a second of rounds or steps on a 2-vCPU host.
func roundOps(n int) int { return (8 << 20) / n }

func noRelease() {}

// roundSpec measures full rounds (step + route) via RunRound.
func roundSpec(workers, n int) benchSpec {
	ops := roundOps(n)
	return benchSpec{
		name: fmt.Sprintf("RoundEngine/workers=%s/n=%d", workersLabel(workers), n),
		n:    n,
		ops:  ops,
		setup: func() (func() error, func(), error) {
			net, _, err := simnet.NewBroadcastBench(n, ops+1, workerCount(workers))
			if err != nil {
				return nil, nil, err
			}
			return net.RunRound, net.Close, nil
		},
	}
}

// stepSpec measures the step half of a round in isolation — the
// dispatch, the Step calls and the node-order merge — via RoundPhases.
func stepSpec(workers, n int) benchSpec {
	return benchSpec{
		name: fmt.Sprintf("RoundEngine/step/workers=%s/n=%d", workersLabel(workers), n),
		n:    n,
		ops:  roundOps(n),
		setup: func() (func() error, func(), error) {
			rp, err := simnet.NewRoundPhases(n, simnet.Config{Workers: workerCount(workers)})
			if err != nil {
				return nil, nil, err
			}
			return rp.StepOnly, rp.Close, nil
		},
	}
}

// discard is the observer=on route rows' observer: it takes the round
// record and drops it.
type discard struct{}

func (discard) ObserveRound(int, []trace.Event) {}

// routeSpec measures the route half in isolation: RunRound's own tail
// on a frozen send stream. The pass is serial whatever Config.Workers
// says, so its rows carry no worker label. A variant names a variation
// of the fixture and becomes the row suffix. "plan=idle" attaches a
// fault plan that schedules no events, so the row measures what plan
// *presence* costs the phase — the route path's fault-aware branches
// against the identical workload. "observer=on" attaches an observer
// that discards its feed, so the route row additionally builds the round
// record and hands it over — what observation costs the engine.
// "reader=said" has one receiver ask for the routed block's
// payload-major index (Inbox.Said) after every round, so the route row
// additionally pays the lazy index build the first reader of a round
// pays. Paired with the plain row of the same shape, the delta is the
// whole price of Config.FaultPlan, Config.Observer or a payload-major
// reader on a healthy network (the zero-alloc gate pins its allocation
// half to 0).
func routeSpec(n int, variant string) benchSpec {
	name := fmt.Sprintf("RoundEngine/route/n=%d", n)
	if variant != "" {
		name += "/" + variant
	}
	var cfg simnet.Config
	switch variant {
	case "plan=idle":
		cfg.FaultPlan = &simnet.FaultPlan{Seed: 1}
	case "observer=on":
		cfg.Observer = discard{}
	}
	return benchSpec{
		name: name,
		n:    n,
		ops:  2 * roundOps(n),
		setup: func() (func() error, func(), error) {
			rp, err := simnet.NewRoundPhases(n, cfg)
			if err != nil {
				return nil, nil, err
			}
			return func() error {
				rp.RouteOnly()
				if variant == "reader=said" {
					in := rp.Inbox()
					in.Said()
				}
				return nil
			}, rp.Close, nil
		},
	}
}

// campaignChunk is the rounds-per-op granularity of the campaign
// benchmark, matching BenchmarkCampaign in internal/simnet so the
// committed rows and the in-package benchmark report the same op.
const campaignChunk = 4

// campaignSpec measures aggregate campaign throughput: jobs independent
// one-worker simulations of size n multiplexed over one bounded
// scheduler (simnet.CampaignBench) with the host's GOMAXPROCS as its
// budget. One op advances every simulation by campaignChunk rounds, so
// the row prices the scheduler's dispatch and admission along with the
// rounds themselves.
func campaignSpec(jobs, n int) benchSpec {
	return benchSpec{
		name: fmt.Sprintf("Campaign/jobs=%d/n=%d", jobs, n),
		n:    n,
		ops:  roundOps(n) / (campaignChunk * jobs),
		setup: func() (func() error, func(), error) {
			cb, err := simnet.NewCampaignBench(jobs, n)
			if err != nil {
				return nil, nil, err
			}
			return func() error { return cb.RunChunk(campaignChunk) }, cb.Close, nil
		},
	}
}

// e2eSpec measures what users run rather than a synthetic round: one op
// is one call of a public entry point at size n — f = ⌊(n−1)/3⌋ silent
// Byzantine nodes, default Config (inline stepping, the facade's oracles
// attached) — from cluster set-up to the checked result. Every layer is
// in the row: protocol Step, routing, the round record and the oracles.
// The seed is fixed, so allocs/op repeats like the engine rows'. A
// positive workers sets Config.Workers and is named in the row.
func e2eSpec(entry string, n, ops, workers int, run func(cfg uba.Config) error) benchSpec {
	f := (n - 1) / 3
	cfg := uba.Config{Correct: n - f, Byzantine: f, Adversary: uba.AdversarySilent, Seed: 1, Workers: workers}
	name := fmt.Sprintf("e2e/uba.%s/n=%d", entry, n)
	if workers > 0 {
		name += fmt.Sprintf("/workers=%d", workers)
	}
	return benchSpec{
		name: name,
		n:    n,
		ops:  ops,
		setup: func() (func() error, func(), error) {
			return func() error { return run(cfg) }, noRelease, nil
		},
	}
}

// orderingSession is one op of the OrderingCluster row: a 200-round
// session driven round by round through the public handle — a submit a
// round for the first 100, joins at rounds 20 and 50, the first joiner
// leaving at 120, FinalizedThrough read every round and every chain every
// tenth — which must order all 100 events.
func orderingSession(cfg uba.Config) error {
	oc, err := uba.NewOrderingCluster(cfg)
	if err != nil {
		return err
	}
	defer oc.Close()
	founders := oc.Members()
	var joiners []uint64
	for r := 1; r <= 200; r++ {
		if r <= 100 {
			if err := oc.SubmitEvent(founders[r%len(founders)], float64(r)); err != nil {
				return err
			}
		}
		switch r {
		case 20, 50:
			id, err := oc.Join()
			if err != nil {
				return err
			}
			joiners = append(joiners, id)
		case 120:
			if err := oc.Leave(joiners[0]); err != nil {
				return err
			}
		}
		if err := oc.RunRounds(1); err != nil {
			return err
		}
		if _, err := oc.FinalizedThrough(founders[r%len(founders)]); err != nil {
			return err
		}
		if r%10 == 0 {
			for _, m := range oc.Members() {
				if _, err := oc.Chain(m); err != nil {
					return err
				}
			}
		}
	}
	chain, err := oc.Chain(founders[0])
	if err == nil && len(chain) != 100 {
		err = fmt.Errorf("ordering session ordered %d of 100 events", len(chain))
	}
	return err
}

// chaosCampaignSpec is the observe layer's row: the campaign bench/ runs
// as campaign-faults — chaos.DefaultCampaign's six arenas × 4 seeds, 7
// correct and 2 Byzantine nodes, 400 rounds under a Byzantine-scoped
// fault plan, every cell watched by its family's full oracle suite —
// with the cells run inline (Jobs 1), so the row does not depend on the
// core count. The facade attaches only the complexity oracle; this is
// the one row the keyed-claim monitors are in.
func chaosCampaignSpec() benchSpec {
	cfg := chaos.DefaultCampaign()
	cfg.Seeds, cfg.Faults, cfg.Jobs = 4, chaos.FaultsByzantine, 1
	run := func() error {
		rep, err := chaos.RunCampaign(cfg, nil)
		if err == nil && !rep.Clean() {
			err = fmt.Errorf("campaign not clean: %d repros, %d errors", len(rep.Repros), len(rep.Errors))
		}
		return err
	}
	return benchSpec{
		name: "e2e/chaos.Campaign/faults=" + cfg.Faults,
		n:    cfg.Correct + cfg.Byzantine,
		ops:  10,
		setup: func() (func() error, func(), error) {
			return run, noRelease, nil
		},
	}
}

// e2eSpecs are the end-to-end rows: uba.Consensus (inputs i%2) at n=128
// and n=256; at e2eFamilySize the families whose Step counts echoes in
// reliable-broadcast fashion — renaming, terminating broadcast (correct
// source) and reliable broadcast (correct source, 8 rounds) — the
// standalone rotor-coordinator, and approximate agreement (inputs i); at
// e2eParallelSize the two entry points of Algorithm 5 — parallel consensus
// over eight instances of which every node lacks one, and interactive
// consistency (inputs 100·i); one OrderingCluster session at the size
// bench/ drives; and the chaos campaign bench/ drives, the only row with
// the families' oracle suites attached. Each op count is about a second
// of ops on a 2-vCPU host.
func e2eSpecs() []benchSpec {
	return []benchSpec{
		consensusSpec(128, 128, 0),
		consensusSpec(256, 32, 0),
		e2eSpec("Renaming", e2eFamilySize, 32, 0, func(cfg uba.Config) error {
			_, err := uba.Renaming(cfg)
			return err
		}),
		e2eSpec("TerminatingBroadcast", e2eFamilySize, 32, 0, func(cfg uba.Config) error {
			_, err := uba.TerminatingBroadcast(cfg, []byte("payload"), true)
			return err
		}),
		e2eSpec("ReliableBroadcast", e2eFamilySize, 256, 0, func(cfg uba.Config) error {
			_, err := uba.ReliableBroadcast(cfg, []byte("payload"), 8)
			return err
		}),
		e2eSpec("Rotor", e2eFamilySize, 32, 0, func(cfg uba.Config) error {
			_, err := uba.Rotor(cfg)
			return err
		}),
		e2eSpec("ApproximateAgreement", e2eFamilySize, 256, 0, func(cfg uba.Config) error {
			inputs := make([]float64, cfg.Correct)
			for i := range inputs {
				inputs[i] = float64(i)
			}
			_, err := uba.ApproximateAgreement(cfg, inputs)
			return err
		}),
		e2eSpec("ParallelConsensus", e2eParallelSize, 128, 0, func(cfg uba.Config) error {
			inputs := make([][]uba.Pair, cfg.Correct)
			for i := range inputs {
				for k := 0; k < 8; k++ {
					if k != i%8 {
						inputs[i] = append(inputs[i], uba.Pair{Instance: uint64(k + 1), Value: float64(k % 2)})
					}
				}
			}
			_, err := uba.ParallelConsensus(cfg, inputs)
			return err
		}),
		e2eSpec("InteractiveConsistency", e2eParallelSize, 32, 0, func(cfg uba.Config) error {
			inputs := make([]float64, cfg.Correct)
			for i := range inputs {
				inputs[i] = float64(100 * i)
			}
			_, err := uba.InteractiveConsistency(cfg, inputs)
			return err
		}),
		e2eSpec("OrderingCluster", 32, 128, 0, orderingSession),
		chaosCampaignSpec(),
	}
}

// consensusSpec is the uba.Consensus row at size n, inputs i%2.
func consensusSpec(n, ops, workers int) benchSpec {
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i % 2)
	}
	return e2eSpec("Consensus", n, ops, workers, func(cfg uba.Config) error {
		_, err := uba.Consensus(cfg, inputs[:cfg.Correct])
		return err
	})
}

// benchSpecs is the one row list: `make bench-json` records it in
// BENCH_simnet.json and `make perf-smoke` re-measures it against that
// file. The n=256 full round and step half at both worker counts, and
// the route half over routeSizes, price the engine a protocol runs on;
// their allocs/op bands are the perf-trajectory counterpart of the
// zero-alloc gates, so an allocation creeping back into the route path
// fails the smoke even where those gates do not run. Each route variant
// pairs with the plain row of its size (see routeSpec): plan=idle and
// observer=on at n=1024, reader=said over readerSizes. The campaign row
// (four simulations at n=256 over the host's worker budget) covers the
// shared scheduler's dispatch. The e2e rows gate what users run: a
// regression in a protocol's Step, which no chatter round exercises,
// moves them and nothing else, and the chaos campaign row is the only
// one with the families' oracle suites in it. The list closes with the
// Config.Workers pair at e2eWorkersSize.
func benchSpecs() []benchSpec {
	var specs []benchSpec
	for _, workers := range workerCounts {
		specs = append(specs, roundSpec(workers, 256), stepSpec(workers, 256))
	}
	for _, n := range routeSizes {
		specs = append(specs, routeSpec(n, ""))
	}
	specs = append(specs, routeSpec(1024, "plan=idle"), routeSpec(1024, "observer=on"))
	for _, n := range readerSizes {
		specs = append(specs, routeSpec(n, "reader=said"))
	}
	specs = append(specs, campaignSpec(4, 256))
	specs = append(specs, e2eSpecs()...)
	return append(specs, consensusSpec(e2eWorkersSize, 4, 1), consensusSpec(e2eWorkersSize, 4, 2))
}

// sample is what a run of ops cost: wall time and the heap allocations
// (count and bytes) it made.
type sample struct {
	ns             int64
	mallocs, bytes uint64
}

// timeOps runs op ops times the way testing.B times a benchmark: a GC
// first, then the wall clock and the runtime.MemStats allocation
// counters around the loop.
func timeOps(ops int, op func() error) (sample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := op(); err != nil {
			return sample{}, err
		}
	}
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return sample{ns: ns, mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, nil
}

// measure is the one measurement loop every row runs: setup, one
// untimed warm-up op reported as the row's cold fields, then exactly
// spec.ops timed ops, then the fixture's release.
func measure(spec benchSpec) (engineBenchResult, error) {
	op, done, err := spec.setup()
	if err != nil {
		return engineBenchResult{}, fmt.Errorf("benchmark %s: %w", spec.name, err)
	}
	defer done()
	cold, err := timeOps(1, op)
	if err != nil {
		return engineBenchResult{}, fmt.Errorf("benchmark %s: warm-up op: %w", spec.name, err)
	}
	warm, err := timeOps(spec.ops, op)
	if err != nil {
		return engineBenchResult{}, fmt.Errorf("benchmark %s: %w", spec.name, err)
	}
	ops := uint64(spec.ops)
	return engineBenchResult{
		Name:        spec.name,
		N:           spec.n,
		Iterations:  spec.ops,
		NsPerOp:     float64(warm.ns) / float64(spec.ops),
		AllocsPerOp: int64(warm.mallocs / ops),
		BytesPerOp:  int64(warm.bytes / ops),
		ColdNs:      cold.ns,
		ColdBytes:   int64(cold.bytes),
	}, nil
}

// runBenchJSON measures every row of benchSpecs and writes the results
// as JSON. This is the `make bench-json` entry point.
func runBenchJSON(outPath string, progress io.Writer) error {
	file := engineBenchFile{
		Description: "simnet round-engine micro-benchmarks (broadcast-heavy: one op = one round, n sends, n^2 deliveries; step/route rows isolate one phase, route = RunRound's tail; the campaign row advances `jobs` concurrent simulations by 4 rounds per op through the shared scheduler at the host's GOMAXPROCS) plus end-to-end rows (e2e/uba.<EntryPoint>: one op = one whole run through the public entry point, f=(n-1)/3 silent, oracles attached, /workers=k stepping with k goroutines; e2e/chaos.Campaign: one op = one 24-cell fault-plan campaign at 7+2 nodes, cells inline, each under its family's full oracle suite). Every row: setup, one untimed warm-up op (cold_ns, cold_bytes), then `iterations` timed ops, a fixed count per row. `make perf-smoke` gates every row against this file; regenerate it whole with `make bench-json`",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, spec := range benchSpecs() {
		r, err := measure(spec)
		if err != nil {
			return err
		}
		file.Benchmarks = append(file.Benchmarks, r)
		fmt.Fprintf(progress, "%-40s %12.0f ns/op %8d allocs/op %10d B/op  cold %12d ns %10d B\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.ColdNs, r.ColdBytes)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(outPath, data, 0o644)
}
