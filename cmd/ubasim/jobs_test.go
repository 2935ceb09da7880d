package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"uba/internal/chaos"
	"uba/internal/simnet/sched"
)

func withJobs(args []string, jobs string) []string {
	return append(slices.Clone(args), "-jobs", jobs)
}

// TestRunJobsOutputIdentical pins the -jobs determinism contract: the
// flag only sets how many goroutines step the run's nodes (and bounds the
// shared scheduler's budget), so a protocol run prints the identical
// report and transcript for every value. The two baselines are the
// default inline stepping and a three-worker step phase.
func TestRunJobsOutputIdentical(t *testing.T) {
	base := []string{"-protocol", "consensus", "-g", "7", "-f", "2", "-adversary", "split", "-seed", "3", "-trace", "99"}
	for _, baseJobs := range []string{"0", "3"} {
		t.Run("jobs="+baseJobs, func(t *testing.T) {
			var baseline bytes.Buffer
			if err := run(withJobs(base, baseJobs), &baseline); err != nil {
				t.Fatal(err)
			}
			for _, jobs := range []string{"1", "2", "4"} {
				var buf bytes.Buffer
				if err := run(withJobs(base, jobs), &buf); err != nil {
					t.Fatal(err)
				}
				if buf.String() != baseline.String() {
					t.Fatalf("-jobs %s output diverged:\n got: %q\nwant: %q", jobs, buf.String(), baseline.String())
				}
			}
		})
	}
}

// TestRunHugeJobsIsBounded: -jobs is an operator-supplied number, and the
// scheduler parks one goroutine per budget unit, so the budget must stop
// at GOMAXPROCS however large the flag (unbounded, -jobs 2000000 took a
// nine-node run to 5 GB and a minute). The worker cap itself stays
// -jobs; a step phase never attaches more workers than it has nodes.
func TestRunHugeJobsIsBounded(t *testing.T) {
	t.Cleanup(func() { sched.SetDefaultBudget(runtime.GOMAXPROCS(0)) })
	args := []string{"-g", "4", "-f", "1", "-trace", "99"}
	var want, got bytes.Buffer
	if err := run(withJobs(args, "0"), &want); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := run(withJobs(args, strconv.Itoa(1<<30)), &got); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("-jobs 1<<30 took %v", d)
	}
	if b := sched.Default().Budget(); b > runtime.GOMAXPROCS(0) {
		t.Errorf("scheduler budget %d after -jobs 1<<30, want at most GOMAXPROCS = %d", b, runtime.GOMAXPROCS(0))
	}
	if got.String() != want.String() {
		t.Errorf("-jobs 1<<30 output diverged:\n got: %q\nwant: %q", got.String(), want.String())
	}
}

// TestRunReproJobsOutputIdentical replays the same shrunk repro under
// several scheduler budgets; the replay verdict and every printed line
// must be identical.
func TestRunReproJobsOutputIdentical(t *testing.T) {
	s := chaos.Scenario{
		Arena:     chaos.ArenaConsensus,
		Correct:   6,
		Seed:      1,
		MaxRounds: 30,
		Twin:      chaos.TwinEarlyDecide,
		Slots: []chaos.SlotSpec{
			{Strategy: chaos.StrategySplitVoter},
			{Strategy: chaos.StrategySilent},
		},
	}
	out, err := chaos.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Skip("planted scenario did not fire; nothing to replay")
	}
	repro := chaos.Repro{Scenario: s, Violation: out.Violations[0], ShrunkFrom: s}
	data, err := chaos.EncodeRepro(repro)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var baseline bytes.Buffer
	if err := run([]string{"-repro", path}, &baseline); err != nil {
		t.Fatalf("%v\n%s", err, baseline.String())
	}
	for _, jobs := range []string{"1", "3"} {
		var buf bytes.Buffer
		if err := run([]string{"-jobs", jobs, "-repro", path}, &buf); err != nil {
			t.Fatalf("-jobs %s: %v\n%s", jobs, err, buf.String())
		}
		if buf.String() != baseline.String() {
			t.Fatalf("-jobs %s replay diverged:\n got: %q\nwant: %q", jobs, buf.String(), baseline.String())
		}
	}
}

func TestRunRejectsNegativeJobs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-jobs", "-1"}, &buf); err == nil {
		t.Fatal("negative -jobs accepted")
	}
}
