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
// needs no release, so the measurement loop can be tested without paying
// for a real engine benchmark.
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

// allocSink defeats allocation sinking in the measured ops.
var allocSink []byte

// measure builds the fixture once, runs one untimed warm-up op reported
// as the cold fields, then exactly the spec's fixed op count, and
// releases the fixture after the last op. It is not parallel: it counts
// allocations, and measure reads the process-wide counters.
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

// row is a measured or baseline row with the two figures the gate reads.
func row(name string, ns float64, allocs int64) engineBenchResult {
	return engineBenchResult{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

// Each verdict at its band's edge: ns/op may be 50 % over its baseline,
// allocs/op 10 % + 2 over, and a row under half its baseline's ns/op
// passes with a stale-baseline note. A measured row with no baseline row
// fails. The verdict is over the rows given; nothing is measured.
func TestPerfSmokeDiffVerdicts(t *testing.T) {
	t.Parallel()
	baseline := engineBenchFile{Benchmarks: []engineBenchResult{
		row("ns/edge", 1000, 100),
		row("ns/over", 1000, 100),
		row("allocs/edge", 1000, 100),
		row("allocs/over", 1000, 100),
		row("both/over", 1000, 100),
		row("stale/edge", 1000, 100),
		row("stale", 1000, 100),
		row("zero/slack", 1000, 0),
		row("unmeasured", 1000, 100),
	}}
	cases := []struct {
		measured engineBenchResult
		verdict  string
	}{
		{row("ns/edge", 1500, 100), "ok"},
		{row("ns/over", 1501, 100), "FAIL: ns/op over band"},
		{row("allocs/edge", 1000, 112), "ok"},
		{row("allocs/over", 1000, 113), "FAIL: allocs/op over band"},
		{row("both/over", 2000, 200), "FAIL: ns/op and allocs/op over band"},
		{row("stale/edge", 500, 100), "ok"},
		{row("stale", 499, 100), "ok; stale baseline (under half its ns/op)"},
		{row("zero/slack", 1000, 2), "ok"},
		{row("unknown", 1000, 100), "FAIL: no baseline row"},
	}
	var rows []engineBenchResult
	for _, c := range cases {
		rows = append(rows, c.measured)
	}
	var buf bytes.Buffer
	if violations := perfSmokeDiff(baseline, rows, &buf); violations != 4 {
		t.Fatalf("violations = %d, want 4:\n%s", violations, buf.String())
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(cases) {
		t.Fatalf("%d lines for %d rows:\n%s", len(lines), len(cases), buf.String())
	}
	for i, c := range cases {
		if name := strings.Fields(lines[i])[0]; name != c.measured.Name {
			t.Errorf("line %d names %q, want %q", i, name, c.measured.Name)
		}
		if !strings.HasSuffix(lines[i], " "+c.verdict) {
			t.Errorf("%s: line %q, want verdict %q", c.measured.Name, lines[i], c.verdict)
		}
	}
}

func TestPerfSmokeDiffAllWithinTolerance(t *testing.T) {
	t.Parallel()
	baseline := engineBenchFile{Benchmarks: []engineBenchResult{row("a", 1000, 10), row("b", 2000, 0)}}
	var buf bytes.Buffer
	violations := perfSmokeDiff(baseline, []engineBenchResult{row("a", 900, 10), row("b", 2100, 0)}, &buf)
	if violations != 0 || strings.Contains(buf.String(), "FAIL") || strings.Contains(buf.String(), "stale") {
		t.Fatalf("violations = %d, want 0 and no notes:\n%s", violations, buf.String())
	}
}

// A band violation fails the gate by default and is downgraded to a
// report by the -warn-only escape hatch; rows within their bands pass.
func TestPerfSmokeGateFailsAndWarnOnlyBypasses(t *testing.T) {
	t.Parallel()
	baseline := engineBenchFile{Benchmarks: []engineBenchResult{row("a", 1000, 10)}}
	regressed := []engineBenchResult{row("a", 3000, 10)}
	var buf bytes.Buffer
	if err := perfSmokeGate(baseline, regressed, false, &buf); err == nil {
		t.Fatalf("band violation did not fail the gate:\n%s", buf.String())
	} else if !strings.Contains(err.Error(), "1 row(s) out of tolerance") {
		t.Fatalf("unexpected gate error: %v", err)
	}
	buf.Reset()
	if err := perfSmokeGate(baseline, regressed, true, &buf); err != nil {
		t.Fatalf("-warn-only still failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "-warn-only set, build not failed") {
		t.Fatalf("warn-only run missing its report line:\n%s", buf.String())
	}
	buf.Reset()
	if err := perfSmokeGate(baseline, []engineBenchResult{row("a", 1000, 10)}, false, &buf); err != nil {
		t.Fatalf("a row within its bands failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "all benchmarks within tolerance") {
		t.Fatalf("passing gate missing its report line:\n%s", buf.String())
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

// BENCH_simnet.json holds exactly the rows benchSpecs measures: a spec
// with no row fails every perf smoke, and a row with no spec is a number
// nothing re-measures. Each row's iterations and n are its spec's, so a
// spec edited without re-recording the file fails here.
func TestCommittedBaselineMatchesSpecs(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile("../../BENCH_simnet.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline engineBenchFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]engineBenchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		if _, dup := rows[b.Name]; dup {
			t.Errorf("baseline row %q appears twice", b.Name)
		}
		rows[b.Name] = b
	}
	specs := make(map[string]bool)
	for _, spec := range benchSpecs() {
		if specs[spec.name] {
			t.Errorf("spec %q appears twice", spec.name)
		}
		specs[spec.name] = true
		b, ok := rows[spec.name]
		switch {
		case !ok:
			t.Errorf("spec %q has no baseline row", spec.name)
		case b.Iterations != spec.ops || b.N != spec.n:
			t.Errorf("row %q: iterations %d, n %d; its spec says %d, %d", spec.name, b.Iterations, b.N, spec.ops, spec.n)
		}
	}
	for _, b := range baseline.Benchmarks {
		if !specs[b.Name] {
			t.Errorf("baseline row %q has no spec", b.Name)
		}
	}
}
