// Command ubabench regenerates the full experiment suite (E1–E18 in
// DESIGN.md): every quantitative claim of the paper as a measured table,
// with a PASS/FAIL verdict per claim.
//
// Usage:
//
//	ubabench            # full sweeps, text tables
//	ubabench -quick     # reduced sweeps (seconds, used in CI)
//	ubabench -only E4   # a single experiment
//	ubabench -markdown  # Markdown tables (EXPERIMENTS.md format)
//	ubabench -benchjson # the benchmark rows (engine + e2e uba.*), warm, fixed op counts -> BENCH_simnet.json
//	ubabench -perfsmoke # the same rows re-measured: ns/op + allocs/op gate against the committed baseline
//	                    # (add -warn-only to report without failing)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uba/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ubabench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ubabench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced sweep sizes")
	only := fs.String("only", "", "run a single experiment (e.g. E4)")
	markdown := fs.Bool("markdown", false, "emit Markdown tables")
	benchjson := fs.Bool("benchjson", false, "run the benchmark rows (round-engine and end-to-end uba.*) — each one warm-up op (reported as cold_ns/cold_bytes), then a fixed count of timed ops — and write them as JSON (see -benchout)")
	benchout := fs.String("benchout", "BENCH_simnet.json", "output path for -benchjson")
	perfsmoke := fs.Bool("perfsmoke", false, "re-measure the benchmark rows and gate ns/op (+50%) and allocs/op (+10%+2) against the committed baseline")
	baseline := fs.String("baseline", "BENCH_simnet.json", "baseline path for -perfsmoke")
	warnOnly := fs.Bool("warn-only", false, "report perf-smoke band violations without failing (escape hatch while re-baselining)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benchjson {
		return runBenchJSON(*benchout, out)
	}
	if *perfsmoke {
		return runPerfSmoke(*baseline, *warnOnly, out)
	}

	experiments := exp.All()
	if *only != "" {
		var filtered []exp.Experiment
		for _, e := range experiments {
			if strings.EqualFold(e.ID, *only) {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("unknown experiment %q", *only)
		}
		experiments = filtered
	}

	failures := 0
	for _, e := range experiments {
		outcome, err := e.Run(*quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if !outcome.Pass {
			failures++
		}
		if *markdown {
			if err := renderMarkdown(out, outcome); err != nil {
				return err
			}
			continue
		}
		if err := outcome.Render(out); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) did not reproduce their claim", failures)
	}
	return nil
}

func renderMarkdown(out io.Writer, o *exp.Outcome) error {
	status := "✅"
	if !o.Pass {
		status = "❌"
	}
	if _, err := fmt.Fprintf(out, "### %s — %s %s\n\n**Claim.** %s\n\n**Measured.** %s\n\n",
		o.ID, o.Name, status, o.Claim, o.Measured); err != nil {
		return err
	}
	for i := range o.Tables {
		if _, err := fmt.Fprintf(out, "*%s*\n\n", o.Tables[i].Title); err != nil {
			return err
		}
		if err := o.Tables[i].Markdown(out); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
	}
	for i := range o.Figures {
		if _, err := fmt.Fprintln(out, "```"); err != nil {
			return err
		}
		if err := o.Figures[i].Render(out); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, "```"); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
	}
	return nil
}
