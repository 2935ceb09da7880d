package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uba/internal/chaos"
	"uba/internal/ids"
	"uba/internal/simnet"
)

func TestRunEachProtocol(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		args []string
		want []string
	}{
		{
			"consensus",
			[]string{"-protocol", "consensus", "-g", "7", "-f", "2", "-adversary", "split"},
			[]string{"decision=", "rounds="},
		},
		{
			"rotor",
			[]string{"-protocol", "rotor", "-g", "7", "-f", "2", "-adversary", "ghost"},
			[]string{"goodRound=", "coordinators="},
		},
		{
			"rb",
			[]string{"-protocol", "rb", "-g", "7", "-f", "2"},
			[]string{"allAccepted=true"},
		},
		{
			"trb",
			[]string{"-protocol", "trb", "-g", "7", "-f", "2"},
			[]string{"delivered=true", `body="payload"`},
		},
		{
			"approx",
			[]string{"-protocol", "approx", "-g", "7", "-f", "2", "-adversary", "split"},
			[]string{"ratio="},
		},
		{
			"renaming",
			[]string{"-protocol", "renaming", "-g", "7", "-f", "2"},
			[]string{"setSize=7", "-> 1"},
		},
		{
			"impossibility-async",
			[]string{"-protocol", "impossibility", "-timing", "async", "-g", "4"},
			[]string{"n=8 (two sides of g=4)  timing=async  seed=1\n", "agreement=false", "decisions=8"},
		},
		{
			"impossibility-sync",
			[]string{"-protocol", "impossibility", "-timing", "sync", "-g", "4"},
			[]string{"n=8 (two sides of g=4)  timing=sync  seed=1\n", "agreement=true", "decisions=8"},
		},
		{
			// No adversary builds no Byzantine node: the header describes
			// the 3-node system whose 9 broadcasts reach 3 receivers each.
			"rb/adversary=none",
			[]string{"-protocol", "rb", "-g", "3", "-f", "1", "-adversary", "none"},
			[]string{"n=3 (g=3, f=0)", "resilient(n>3f)=true", "sends=9 deliveries=27"},
		},
		{
			"jobs=3",
			[]string{"-protocol", "consensus", "-g", "5", "-f", "1", "-jobs", "3"},
			[]string{"decision="},
		},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := run(tt.args, &buf); err != nil {
				t.Fatalf("run(%v): %v\n%s", tt.args, err, buf.String())
			}
			for _, want := range tt.want {
				if !strings.Contains(buf.String(), want) {
					t.Fatalf("output missing %q:\n%s", want, buf.String())
				}
			}
		})
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-protocol", "bogus"},
		{"-adversary", "bogus"},
		{"-protocol", "impossibility", "-timing", "bogus"},
		{"-badflag"},
		{"-g", "0"},
		{"-protocol", "consensus", "-g", "-3", "-f", "1"},
		{"-protocol", "approx", "-g", "-3", "-f", "1"},
		{"-protocol", "vector", "-g", "-3", "-f", "1"},
		{"-trace", "-3"},
		{"-warm", "0"},
		{"-protocol", "impossibility", "-trace", "5"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
		if slices.Contains(args, "-g") && err.Error() != "uba: Config.Correct must be positive" {
			t.Fatalf("run(%v) = %v, want the facade's size error", args, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("run(%v) printed %q before its error; a bad input prints only the error", args, buf.String())
		}
	}
}

func TestRunWithTranscript(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	args := []string{"-protocol", "consensus", "-g", "4", "-f", "1", "-trace", "3"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"--- transcript ---", "--- round 2 ---", "init"} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
}

// -stats adds exactly one line after the run's output, the transcript
// included, and a run without it prints none: the goldens do not see
// the flag.
func TestRunWithStats(t *testing.T) {
	t.Parallel()
	args := []string{"-protocol", "consensus", "-g", "4", "-f", "1", "-trace", "3"}
	var plain, stats bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-stats"), &stats); err != nil {
		t.Fatal(err)
	}
	head, last, ok := strings.Cut(strings.TrimSuffix(stats.String(), "\n"), "\nstats: ")
	if !ok || strings.Contains(last, "\n") {
		t.Fatalf("-stats output does not end in one stats line:\n%s", stats.String())
	}
	if head+"\n" != plain.String() {
		t.Fatalf("-stats changed the run's output:\n%s\nwithout it:\n%s", head, plain.String())
	}
	var wall, alloc, rss float64
	if _, err := fmt.Sscanf(last, "wall_ms=%f alloc_mb=%f peak_rss_mb=%f", &wall, &alloc, &rss); err != nil {
		t.Fatalf("stats line %q: %v", last, err)
	}
	if wall <= 0 || alloc <= 0 || rss <= 0 {
		t.Fatalf("stats line %q: every figure must be positive", last)
	}
	if strings.Contains(plain.String(), "stats:") {
		t.Fatal("a run without -stats printed a stats line")
	}
}

// -warm k prints what one run prints: the k-1 runs before the last are
// silent, and a run of the same configuration is the same run however
// warm the process is.
func TestRunWarmPrintsTheLastRun(t *testing.T) {
	t.Parallel()
	args := []string{"-protocol", "consensus", "-g", "4", "-f", "1", "-trace", "3"}
	var plain, warm bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-warm", "3"), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.String() != plain.String() {
		t.Fatalf("-warm 3 printed:\n%s\none run printed:\n%s", warm.String(), plain.String())
	}
}

// -cpuprofile and -memprofile write both profiles of the last run and
// change nothing the run prints. Not parallel: a CPU profile is one per
// process, and the heap sampling rate is the process's.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	args := []string{"-protocol", "rotor", "-g", "40", "-f", "13", "-warm", "2"}
	var plain, profiled bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &profiled); err != nil {
		t.Fatal(err)
	}
	if profiled.String() != plain.String() {
		t.Fatalf("profiling changed the run's output:\n%s\nwithout it:\n%s", profiled.String(), plain.String())
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: not written or empty (%v)", filepath.Base(path), err)
		}
	}
	if err := run(append(args, "-cpuprofile", filepath.Join(dir, "none", "cpu.out")), io.Discard); err == nil {
		t.Fatal("an unwritable -cpuprofile path did not fail the run")
	}
}

func TestRunReproReplaysShrunkViolation(t *testing.T) {
	t.Parallel()
	// Shrink the planted earlydecide disagreement to a minimal repro and
	// make sure the -repro flag replays it to the "reproduced" verdict.
	s := chaos.Scenario{
		Arena:     chaos.ArenaConsensus,
		Correct:   6,
		Seed:      42,
		MaxRounds: 30,
		Twin:      chaos.TwinEarlyDecide,
		Slots:     []chaos.SlotSpec{{Strategy: chaos.StrategySplitVoter, Seed: 11}},
	}
	repro, ok := chaos.Shrink(s, "earlydecide-agreement", 200)
	if !ok {
		t.Fatal("shrink could not confirm the planted violation")
	}
	data, err := chaos.EncodeRepro(repro)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shrunk.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"-repro", path}, &buf); err != nil {
		t.Fatalf("run(-repro): %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"repro: arena=consensus", "twin=earlydecide", "slot 0: splitvoter",
		"expected: earlydecide-agreement", "verdict reproduced",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunReproReplaysFaultPlan replays a repro whose violation is
// caused by the network — an earlydecide disagreement planted by a
// partition, with zero Byzantine slots — and checks the fault plan is
// both replayed and printed.
func TestRunReproReplaysFaultPlan(t *testing.T) {
	t.Parallel()
	const seed, correct = 42, 6
	all := ids.Sparse(rand.New(rand.NewSource(seed)), correct)
	var evens, odds []uint64
	for i, id := range all {
		if i%2 == 0 {
			evens = append(evens, uint64(id))
		} else {
			odds = append(odds, uint64(id))
		}
	}
	s := chaos.Scenario{
		Arena:     chaos.ArenaConsensus,
		Correct:   correct,
		Seed:      seed,
		MaxRounds: 30,
		Twin:      chaos.TwinEarlyDecide,
		Faults: &simnet.FaultPlan{
			Seed:   1,
			Events: []simnet.FaultEvent{{Round: 2, Kind: simnet.FaultPartition, Groups: [][]uint64{evens, odds}}},
		},
	}
	repro, ok := chaos.Shrink(s, "earlydecide-agreement", 200)
	if !ok {
		t.Fatal("shrink could not confirm the partition-planted violation")
	}
	data, err := chaos.EncodeRepro(repro)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "faultrepro.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"-repro", path}, &buf); err != nil {
		t.Fatalf("run(-repro): %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"repro: arena=consensus", "f=0",
		"faults: seed=1", ": partition groups=",
		"expected: earlydecide-agreement", "verdict reproduced",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunReproDiagnosesInvalidFiles is the CLI half of the repro-hygiene
// contract: structurally invalid repro files — malformed JSON, truncated
// files, zero-value documents, broken fault plans — exit non-zero with a
// single-line diagnostic instead of replaying garbage.
func TestRunReproDiagnosesInvalidFiles(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"malformed json": "{broken",
		"not json":       "never gonna replay",
		"zero value":     "{}",
		"truncated":      `{"scenario":{"arena":3,"correct":6,"seed":42,"max_rou`,
		"bad fault plan": `{"scenario":{"arena":3,"correct":2,"max_rounds":5,` +
			`"faults":{"events":[{"round":0,"kind":"heal"}]}},"violation":{"oracle":"x"}}`,
	}
	for name, body := range cases {
		name, body := name, body
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err := run([]string{"-repro", path}, &buf)
			if err == nil {
				t.Fatalf("invalid repro accepted:\n%s", buf.String())
			}
			if msg := err.Error(); strings.Contains(msg, "\n") {
				t.Fatalf("diagnostic spans multiple lines: %q", msg)
			}
		})
	}
}

func TestRunReproRejectsBadInput(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-repro", filepath.Join(t.TempDir(), "missing.json")}, &buf); err == nil {
		t.Fatal("missing repro file accepted")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-repro", garbage}, &buf); err == nil {
		t.Fatal("malformed repro file accepted")
	}

	// A repro whose recorded violation does not match the library's
	// deterministic outcome must fail the replay verdict.
	s := chaos.Scenario{
		Arena:     chaos.ArenaConsensus,
		Correct:   2,
		Seed:      42,
		MaxRounds: 5,
		Twin:      chaos.TwinEarlyDecide,
		Slots:     []chaos.SlotSpec{{Strategy: chaos.StrategySplitVoter, Seed: 11}},
	}
	out, err := chaos.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := out.Fired("earlydecide-agreement")
	if !ok {
		t.Fatal("planted scenario did not fire")
	}
	v.Detail = "tampered"
	data, err := chaos.EncodeRepro(chaos.Repro{Scenario: s, Violation: v, ShrunkFrom: s})
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(t.TempDir(), "tampered.json")
	if err := os.WriteFile(tampered, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-repro", tampered}, &buf); err == nil {
		t.Fatal("tampered repro reported as reproduced")
	}
}
