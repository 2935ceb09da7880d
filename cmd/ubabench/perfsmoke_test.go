package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// opSpec is a benchmark spec running op 1000 times on a fixture that
// needs no release, so the measurement and diff logic can be tested
// without paying for a real engine benchmark.
func opSpec(name string, op func() error) benchSpec {
	return benchSpec{
		name: name,
		n:    1,
		ops:  1000,
		setup: func() (func() error, func(), error) {
			return op, noRelease, nil
		},
	}
}

// fastSpec is a benchmark spec with a near-free op.
func fastSpec(name string) benchSpec {
	return opSpec(name, func() error { return nil })
}

// allocSink defeats allocation sinking in allocSpec's op.
var allocSink []byte

// allocSpec is a benchmark spec whose op performs a fixed number of heap
// allocations, for exercising the allocs/op band.
func allocSpec(name string) benchSpec {
	return opSpec(name, func() error {
		for j := 0; j < 64; j++ {
			allocSink = make([]byte, 1)
		}
		return nil
	})
}

// measure builds the fixture once, runs one untimed warm-up op reported
// as the cold fields, then exactly the spec's fixed op count, and
// releases the fixture after the last op. Like every test here that
// counts allocations, it is not parallel: measure reads the
// process-wide allocation counters.
func TestMeasureRunsOneWarmUpThenTheFixedOps(t *testing.T) {
	var setups, ops, dones int
	spec := benchSpec{
		name: "count",
		n:    1,
		ops:  37,
		setup: func() (func() error, func(), error) {
			setups++
			op := func() error {
				if dones > 0 {
					t.Error("op ran after the fixture was released")
				}
				ops++
				allocSink = make([]byte, 64)
				return nil
			}
			return op, func() { dones++ }, nil
		},
	}
	r, err := measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	if setups != 1 || ops != 1+spec.ops || dones != 1 {
		t.Fatalf("setup ran %d times, op %d, done %d; want 1, %d, 1", setups, ops, dones, 1+spec.ops)
	}
	if r.Iterations != spec.ops {
		t.Fatalf("iterations = %d, want the fixed %d", r.Iterations, spec.ops)
	}
	if r.ColdNs <= 0 || r.ColdBytes <= 0 {
		t.Fatalf("cold fields not reported: %d ns, %d B", r.ColdNs, r.ColdBytes)
	}
	if r.AllocsPerOp < 1 {
		t.Fatalf("allocs/op = %d, want the op's allocation counted", r.AllocsPerOp)
	}
}

// A failing op fails the row, naming it.
func TestMeasureReportsAFailingOp(t *testing.T) {
	t.Parallel()
	_, err := measure(opSpec("broken", func() error { return errors.New("boom") }))
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v, want the failing row named", err)
	}
}

func TestPerfSmokeDiffVerdicts(t *testing.T) {
	baseline := engineBenchFile{
		Benchmarks: []engineBenchResult{
			// A near-free op is far below this baseline, so
			// the row lands inside both bands.
			{Name: "fast/ok", NsPerOp: 1e9, AllocsPerOp: 100},
			// And far above this one, so the row must break the ns band.
			{Name: "fast/regressed", NsPerOp: 1e-6, AllocsPerOp: 100},
			// Generous time budget but a near-zero alloc budget: the 64
			// allocations per op break the allocs band on their own.
			{Name: "alloc/regressed", NsPerOp: 1e9, AllocsPerOp: 1},
		},
	}
	specs := []benchSpec{
		fastSpec("fast/ok"),
		fastSpec("fast/regressed"),
		allocSpec("alloc/regressed"),
		fastSpec("fast/unknown"),
	}
	var buf bytes.Buffer
	violations, err := perfSmokeDiff(baseline, specs, 0.5, 0.1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 2 {
		t.Fatalf("violations = %d, want 2:\n%s", violations, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"fast/ok", "ok",
		"fast/regressed", "FAIL: ns/op over band",
		"alloc/regressed", "FAIL: allocs/op over band",
		"fast/unknown", "no baseline row",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestPerfSmokeDiffAllWithinTolerance(t *testing.T) {
	baseline := engineBenchFile{
		Benchmarks: []engineBenchResult{{Name: "fast/ok", NsPerOp: 1e9}},
	}
	var buf bytes.Buffer
	violations, err := perfSmokeDiff(baseline, []benchSpec{fastSpec("fast/ok")}, 0.5, 0.1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("violations = %d, want 0:\n%s", violations, buf.String())
	}
}

// A band violation fails the run by default and is downgraded to a
// report by the -warn-only escape hatch.
func TestPerfSmokeGateFailsAndWarnOnlyBypasses(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a real n=256 smoke benchmark")
	}
	t.Parallel()
	path := filepath.Join(t.TempDir(), "baseline.json")
	baseline := engineBenchFile{
		Benchmarks: []engineBenchResult{{Name: smokeSpecs()[0].name, NsPerOp: 1e-6}},
	}
	data, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The baseline holds one row with an impossibly fast ns/op, so the
	// matching smoke spec must break its band; every other smoke spec
	// has no baseline row and is skipped unmeasured.
	var buf bytes.Buffer
	if err := runPerfSmoke(path, 0.5, 0.1, false, &buf); err == nil {
		t.Fatalf("band violation did not fail the gate:\n%s", buf.String())
	} else if !strings.Contains(err.Error(), "out of tolerance") {
		t.Fatalf("unexpected gate error: %v", err)
	}
	buf.Reset()
	if err := runPerfSmoke(path, 0.5, 0.1, true, &buf); err != nil {
		t.Fatalf("-warn-only still failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "-warn-only set, build not failed") {
		t.Fatalf("warn-only run missing its report line:\n%s", buf.String())
	}
}

func TestPerfSmokeMissingBaseline(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-perfsmoke", "-baseline", filepath.Join(t.TempDir(), "nope.json")}, &buf); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestPerfSmokeMalformedBaseline(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-perfsmoke", "-baseline", path}, &buf); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

// The committed baseline must contain every row the smoke subset
// measures, under the exact names the differ looks up — otherwise the
// CI step silently degrades to "no baseline row" skips.
func TestCommittedBaselineCoversSmokeSpecs(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile("../../BENCH_simnet.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline engineBenchFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]bool, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		byName[b.Name] = true
	}
	for _, spec := range smokeSpecs() {
		if !byName[spec.name] {
			t.Errorf("baseline has no row for smoke spec %q", spec.name)
		}
	}
}
