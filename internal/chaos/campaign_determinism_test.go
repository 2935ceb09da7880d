package chaos

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// This file pins the campaign determinism contract: the RunCampaign
// report — including repro ordering and the Errors formatting — must be
// byte-identical across campaign job counts and across repeated runs,
// and the concurrent progress log must honor the documented ordering
// contract. The job-count sweep runs real concurrency (the cells go
// through the shared scheduler), so `go test -race ./internal/chaos`
// doubles as the concurrent-campaign race check CI runs.

// reproCampaign is a twin campaign whose cells produce repros — the
// richest report shape (Runs + Repros with shrink metadata).
func reproCampaign(jobs int) CampaignConfig {
	return CampaignConfig{
		Arenas:       []Arena{ArenaConsensus},
		Seeds:        5,
		Correct:      6,
		Byzantine:    2,
		MaxRounds:    30,
		ShrinkBudget: 120,
		Twin:         TwinEarlyDecide,
		Jobs:         jobs,
	}
}

// faultCampaign is the repro campaign under generated fault plans, so its
// cells run the route pass's link filter and its shrinks the fault-plan
// passes. A plan quarantines the coalition over the rounds whose inputs
// the twin adopts, so few cells fire: seed 50 is the first that does.
func faultCampaign(jobs int) CampaignConfig {
	cfg := reproCampaign(jobs)
	cfg.Seeds = 50
	cfg.Faults = FaultsByzantine
	return cfg
}

// errorCampaign uses an unknown twin so every cell fails to execute,
// exercising the Errors formatting and ordering.
func errorCampaign(jobs int) CampaignConfig {
	return CampaignConfig{
		Arenas:       []Arena{ArenaConsensus, ArenaBroadcast},
		Seeds:        3,
		Correct:      4,
		Byzantine:    1,
		MaxRounds:    20,
		ShrinkBudget: 50,
		Twin:         "bogus-twin",
		Jobs:         jobs,
	}
}

// reportBytes canonicalizes a report for byte comparison.
func reportBytes(t *testing.T, r *CampaignReport) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCampaignReportByteIdenticalAcrossJobs runs the same campaigns at
// job counts {1, 2, 5} twice each and requires every report to be
// byte-identical to the sequential (Jobs=1) baseline.
func TestCampaignReportByteIdenticalAcrossJobs(t *testing.T) {
	t.Parallel()
	campaigns := []struct {
		name string
		cfg  func(jobs int) CampaignConfig
	}{
		{"repros", reproCampaign},
		{"faults", faultCampaign},
		{"errors", errorCampaign},
	}
	for _, tc := range campaigns {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			baselineReport, err := RunCampaign(tc.cfg(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			baseline := reportBytes(t, baselineReport)
			if tc.name == "errors" {
				if len(baselineReport.Errors) != baselineReport.Runs {
					t.Fatalf("error campaign: %d errors for %d runs", len(baselineReport.Errors), baselineReport.Runs)
				}
				// Pin the documented "arena/seed: message" formatting so a
				// concurrency refactor cannot silently reshape the entries.
				if want := "consensus/seed=1: "; !strings.HasPrefix(baselineReport.Errors[0], want) {
					t.Fatalf("Errors[0] = %q, want prefix %q", baselineReport.Errors[0], want)
				}
			} else if len(baselineReport.Repros) == 0 {
				t.Fatal("repro campaign produced no repros; the sweep would compare empty reports")
			}
			for _, jobs := range []int{1, 2, 5} {
				for rep := 0; rep < 2; rep++ {
					report, err := RunCampaign(tc.cfg(jobs), nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := reportBytes(t, report); got != baseline {
						t.Fatalf("jobs=%d rep=%d: report diverged from sequential baseline\ngot:  %s\nwant: %s",
							jobs, rep, got, baseline)
					}
				}
			}
		})
	}
}

// logLine is one captured logf call.
type logLine struct {
	format string
	args   []any
}

// captureLog collects logf calls; RunCampaign serializes calls through
// its own mutex, but capture defensively locks anyway so the test would
// report a data race rather than corrupt its own slice if that contract
// ever broke.
type captureLog struct {
	mu    sync.Mutex
	lines []logLine
}

func (c *captureLog) logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, logLine{format: format, args: args})
}

func (c *captureLog) rendered() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.lines))
	for i, l := range c.lines {
		out[i] = fmt.Sprintf(l.format, l.args...)
	}
	return out
}

// TestCampaignLogOrderingContract checks the documented logf contract
// at Jobs=5: every line carries its cell's "chaos <arena> seed=<n>:"
// prefix, each cell's lines appear in its own program order (VIOLATION
// before shrunk), and the line multiset is exactly the sequential
// campaign's. At Jobs=1 the order must equal the sequential order.
func TestCampaignLogOrderingContract(t *testing.T) {
	t.Parallel()
	var seq captureLog
	if _, err := RunCampaign(reproCampaign(1), seq.logf); err != nil {
		t.Fatal(err)
	}
	seqLines := seq.rendered()
	if len(seqLines) == 0 {
		t.Fatal("sequential campaign logged nothing")
	}
	for _, line := range seqLines {
		if !strings.HasPrefix(line, "chaos consensus seed=") {
			t.Fatalf("log line missing its cell prefix: %q", line)
		}
	}

	var conc captureLog
	if _, err := RunCampaign(reproCampaign(5), conc.logf); err != nil {
		t.Fatal(err)
	}
	concLines := conc.rendered()

	// Same multiset of lines: completion order may differ, content may not.
	count := func(lines []string) map[string]int {
		m := make(map[string]int, len(lines))
		for _, l := range lines {
			m[l]++
		}
		return m
	}
	seqCount, concCount := count(seqLines), count(concLines)
	if len(concLines) != len(seqLines) {
		t.Fatalf("concurrent campaign logged %d lines, sequential %d", len(concLines), len(seqLines))
	}
	for line, n := range seqCount {
		if concCount[line] != n {
			t.Fatalf("line %q: %d occurrences concurrent, %d sequential", line, concCount[line], n)
		}
	}

	// Per-cell program order: for each seed, the concurrent log's lines
	// with that prefix must appear in the same relative order as the
	// sequential log's.
	perCell := func(lines []string, prefix string) []string {
		var out []string
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				out = append(out, l)
			}
		}
		return out
	}
	for seed := 1; seed <= 5; seed++ {
		prefix := fmt.Sprintf("chaos consensus seed=%d:", seed)
		seqCell, concCell := perCell(seqLines, prefix), perCell(concLines, prefix)
		if len(seqCell) != len(concCell) {
			t.Fatalf("seed %d: %d lines concurrent, %d sequential", seed, len(concCell), len(seqCell))
		}
		for i := range seqCell {
			if seqCell[i] != concCell[i] {
				t.Fatalf("seed %d line %d: concurrent %q, sequential %q — per-cell order not preserved",
					seed, i, concCell[i], seqCell[i])
			}
		}
	}

	// Jobs=1 must reproduce the sequential log exactly, line for line.
	var inline captureLog
	if _, err := RunCampaign(reproCampaign(1), inline.logf); err != nil {
		t.Fatal(err)
	}
	inlineLines := inline.rendered()
	if len(inlineLines) != len(seqLines) {
		t.Fatalf("Jobs=1 repeat logged %d lines, want %d", len(inlineLines), len(seqLines))
	}
	for i := range seqLines {
		if inlineLines[i] != seqLines[i] {
			t.Fatalf("Jobs=1 line %d: %q, want %q", i, inlineLines[i], seqLines[i])
		}
	}
}
