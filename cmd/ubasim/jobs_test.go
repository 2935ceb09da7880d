package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uba/internal/chaos"
)

// TestRunJobsOutputIdentical pins the -jobs determinism contract: the
// flag only sets the run's worker cap and the shared scheduler's
// budget, so a protocol run prints the identical report and transcript
// for every value. The two baselines are the default inline dispatch
// ("sequential") and a three-worker dispatch ("concurrent").
func TestRunJobsOutputIdentical(t *testing.T) {
	for _, mode := range []string{"sequential", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			base := []string{"-protocol", "consensus", "-g", "7", "-f", "2", "-adversary", "split", "-seed", "3", "-trace", "99"}
			baseArgs := base
			if mode == "concurrent" {
				baseArgs = append(append([]string{}, base...), "-jobs", "3")
			}
			var baseline bytes.Buffer
			if err := run(baseArgs, &baseline); err != nil {
				t.Fatal(err)
			}
			for _, jobs := range []string{"1", "2", "4"} {
				var buf bytes.Buffer
				if err := run(append(append([]string{}, base...), "-jobs", jobs), &buf); err != nil {
					t.Fatal(err)
				}
				if buf.String() != baseline.String() {
					t.Fatalf("-jobs %s output diverged:\n got: %q\nwant: %q", jobs, buf.String(), baseline.String())
				}
			}
		})
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
