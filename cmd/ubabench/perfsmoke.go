package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// smokeSpecs is the perf-smoke subset: the n=256 full-round and
// step-only benchmarks for both worker counts (1 and GOMAXPROCS), the
// n=256 route-only row, plus the route-only rows at the two sizes the
// zero-alloc gate certifies (n=1024, n=4096) — the
// allocs/op band on those rows is the perf-trajectory counterpart of
// the zero-alloc gates, so an allocation creeping back into the
// gated route path fails the smoke even where the zero-alloc
// gate is not running. The plan=idle route rows re-pin the same band
// with a fault plan attached but never live, so plan presence staying
// free on a healthy round (0 allocs/op, flat ns/op) is part of the
// smoke contract; the observer=on route row does the same for an
// attached observer, so the price of the round record — O(B+U) events
// in recycled scratch, 0 allocs/op — is a gated row; the reader=said
// route rows (n=256 and n=1024) gate a round that is read payload-major
// the same way: the lazy index build of Inbox.Said, 0 allocs/op. The
// campaign row (4 concurrent simulations at the perf-gate size, at the
// host's GOMAXPROCS) covers the shared scheduler's admission path the
// same way: its
// allocs/op band certifies that multiplexing simulations adds no per-op
// allocations, and its ns/op band catches a regression in the dispatch
// or fairness machinery. The e2e rows (uba.Consensus at n=128 and n=256,
// uba.Renaming, uba.TerminatingBroadcast, uba.ReliableBroadcast, uba.Rotor
// and uba.ApproximateAgreement at n=256, uba.ParallelConsensus and
// uba.InteractiveConsistency at n=128,
// one uba.OrderingCluster session at n=32, through the public entry
// points, oracles attached) gate what users actually run: a regression in
// a protocol's Step, which no chatter round exercises, moves them and
// nothing else. The e2e/chaos.Campaign/faults=byzantine row (24 cells of
// 7+2 nodes, 400 rounds each, run inline) is the observe layer's: the
// facade attaches one complexity oracle, a chaos cell its family's whole
// suite, so a per-round format, copy or map rebuild in internal/oracle
// moves this row's allocs/op and no other.
// Every row is measured as in the full sweep (measure: one warm-up op,
// then the row's fixed op count), so the bands compare warm numbers.
// Small enough to finish in seconds on a CI runner, broad enough that
// a regression in either phase, either worker count, or the campaign
// layer moves at least one row.
func smokeSpecs() []benchSpec {
	var specs []benchSpec
	for _, workers := range workerCounts {
		specs = append(specs, roundSpec(workers, 256), stepSpec(workers, 256))
	}
	for _, n := range []int{256, 1024, 4096} {
		specs = append(specs, routeSpec(n, ""))
	}
	specs = append(specs, routeSpec(1024, "plan=idle"), routeSpec(1024, "observer=on"))
	for _, n := range readerSizes {
		specs = append(specs, routeSpec(n, "reader=said"))
	}
	specs = append(specs, campaignSpec(4, 256))
	return append(specs, e2eSpecs()...)
}

// allocSlack is the absolute allocs/op headroom added on top of the
// relative band: allocation counts are deterministic for this engine,
// but the runtime can contribute a couple of allocations to a row with
// a low op count, and a zero baseline row would otherwise admit no slack
// at all.
const allocSlack = 2

// runPerfSmoke re-measures the smoke subset and diffs it against the
// committed baseline, enforcing a per-row tolerance band on ns/op AND
// on allocs/op. Timing gets a wide band (nsTol, default +50%) because
// shared CI runners are noisy; allocation counts get a tight band
// (allocTol + allocSlack) because they are schedule-independent — an
// allocs/op regression is a real code change, not jitter.
//
// A row outside either band fails the run unless warnOnly is set — the
// one-flag escape hatch (-warn-only) for landing a change whose cost is
// understood before the baseline is regenerated.
func runPerfSmoke(baselinePath string, nsTol, allocTol float64, warnOnly bool, out io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("perf smoke: %w", err)
	}
	var baseline engineBenchFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("perf smoke: parsing %s: %w", baselinePath, err)
	}
	fmt.Fprintf(out, "perf smoke vs %s (baseline %s gomaxprocs=%d; here %s gomaxprocs=%d; bands ns/op +%.0f%%, allocs/op +%.0f%%+%d)\n",
		baselinePath, baseline.GoVersion, baseline.GOMAXPROCS,
		runtime.Version(), runtime.GOMAXPROCS(0), nsTol*100, allocTol*100, allocSlack)
	violations, err := perfSmokeDiff(baseline, smokeSpecs(), nsTol, allocTol, out)
	if err != nil {
		return err
	}
	if violations == 0 {
		fmt.Fprintln(out, "perf smoke: all benchmarks within tolerance")
		return nil
	}
	if warnOnly {
		fmt.Fprintf(out, "perf smoke: %d row(s) out of tolerance — -warn-only set, build not failed; regenerate the baseline with `make bench-json` if the change is intentional\n",
			violations)
		return nil
	}
	return fmt.Errorf("perf smoke: %d row(s) out of tolerance; regenerate the baseline with `make bench-json` if the change is intentional, or pass -warn-only to land first and re-baseline after",
		violations)
}

// perfSmokeDiff measures each spec that has a baseline row of the same
// name and reports its ns/op and allocs/op deltas against that row,
// returning how many rows broke their band. A spec with no baseline row
// is skipped unmeasured.
func perfSmokeDiff(baseline engineBenchFile, specs []benchSpec, nsTol, allocTol float64, out io.Writer) (int, error) {
	byName := make(map[string]engineBenchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		byName[b.Name] = b
	}
	violations := 0
	for _, spec := range specs {
		base, ok := byName[spec.name]
		if !ok {
			fmt.Fprintf(out, "%-40s (no baseline row; skipped)\n", spec.name)
			continue
		}
		r, err := measure(spec)
		if err != nil {
			return violations, fmt.Errorf("perf smoke: %w", err)
		}
		nsDelta := (r.NsPerOp - base.NsPerOp) / base.NsPerOp
		allocBand := float64(base.AllocsPerOp)*(1+allocTol) + allocSlack
		verdict := "ok"
		switch {
		case nsDelta > nsTol && float64(r.AllocsPerOp) > allocBand:
			verdict = "FAIL: ns/op and allocs/op over band"
			violations++
		case nsDelta > nsTol:
			verdict = "FAIL: ns/op over band"
			violations++
		case float64(r.AllocsPerOp) > allocBand:
			verdict = "FAIL: allocs/op over band"
			violations++
		}
		fmt.Fprintf(out, "%-40s %12.0f ns/op (base %12.0f, %+7.1f%%)  %6d allocs/op (band %6.0f)  %s\n",
			r.Name, r.NsPerOp, base.NsPerOp, nsDelta*100, r.AllocsPerOp, allocBand, verdict)
	}
	return violations, nil
}
