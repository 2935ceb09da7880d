package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// The perf-smoke bands. Timing gets a wide band because shared CI
// runners are noisy; allocation counts get a tight one because they are
// schedule-independent, so an allocs/op regression is a real code change,
// not jitter.
const (
	// nsTolerance is the ns/op band: a row may be this fraction slower
	// than its baseline row.
	nsTolerance = 0.5
	// allocTolerance is the relative allocs/op band.
	allocTolerance = 0.1
	// allocSlack is the absolute allocs/op headroom added on top of the
	// relative band: the runtime can contribute a couple of allocations
	// to a row with a low op count, and a zero baseline row would
	// otherwise admit no slack at all.
	allocSlack = 2
	// staleRatio marks a stale baseline: a row measuring under this
	// fraction of its baseline's ns/op passes, but a band that wide would
	// also pass a many-fold slowdown, so the row says so.
	staleRatio = 0.5
)

// runPerfSmoke re-measures every row of benchSpecs and gates the rows
// against the baseline file (see perfSmokeGate).
func runPerfSmoke(baselinePath string, warnOnly bool, out io.Writer) error {
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
		runtime.Version(), runtime.GOMAXPROCS(0), nsTolerance*100, allocTolerance*100, allocSlack)
	var rows []engineBenchResult
	for _, spec := range benchSpecs() {
		r, err := measure(spec)
		if err != nil {
			return fmt.Errorf("perf smoke: %w", err)
		}
		rows = append(rows, r)
	}
	return perfSmokeGate(baseline, rows, warnOnly, out)
}

// perfSmokeGate judges measured rows against the baseline. A row outside
// either band, or with no baseline row, fails the gate unless warnOnly
// is set — the one-flag escape hatch (-warn-only) for landing a change
// whose cost is understood before the baseline is regenerated.
func perfSmokeGate(baseline engineBenchFile, rows []engineBenchResult, warnOnly bool, out io.Writer) error {
	violations := perfSmokeDiff(baseline, rows, out)
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

// perfSmokeDiff prints each measured row's ns/op and allocs/op against
// the baseline row of the same name, with its verdict, and returns how
// many rows failed. It measures nothing.
func perfSmokeDiff(baseline engineBenchFile, rows []engineBenchResult, out io.Writer) int {
	byName := make(map[string]engineBenchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		byName[b.Name] = b
	}
	violations := 0
	for _, r := range rows {
		base, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(out, "%-40s FAIL: no baseline row\n", r.Name)
			violations++
			continue
		}
		verdict, failed := rowVerdict(base, r)
		if failed {
			violations++
		}
		fmt.Fprintf(out, "%-40s %12.0f ns/op (base %12.0f, %+7.1f%%)  %6d allocs/op (band %6.0f)  %s\n",
			r.Name, r.NsPerOp, base.NsPerOp, (r.NsPerOp/base.NsPerOp-1)*100, r.AllocsPerOp, allocBand(base), verdict)
	}
	return violations
}

// rowVerdict is one row's verdict against its baseline row, and whether
// it fails the gate.
func rowVerdict(base, r engineBenchResult) (string, bool) {
	nsOver := r.NsPerOp > base.NsPerOp*(1+nsTolerance)
	allocOver := float64(r.AllocsPerOp) > allocBand(base)
	switch {
	case nsOver && allocOver:
		return "FAIL: ns/op and allocs/op over band", true
	case nsOver:
		return "FAIL: ns/op over band", true
	case allocOver:
		return "FAIL: allocs/op over band", true
	case r.NsPerOp < base.NsPerOp*staleRatio:
		return "ok; stale baseline (under half its ns/op)", false
	}
	return "ok", false
}

// allocBand is the most allocs/op a row may make against its baseline row.
func allocBand(base engineBenchResult) float64 {
	return float64(base.AllocsPerOp)*(1+allocTolerance) + allocSlack
}
