// Command ubasweep runs custom parameter sweeps over the library's
// protocols and emits CSV, for ad-hoc exploration beyond the fixed
// experiment suite of ubabench (plotting rounds-vs-n for your own ranges,
// comparing adversaries at a size ubabench does not use, etc.).
//
// Usage:
//
//	ubasweep -protocol consensus -n 4,7,13,25 -adversary split,noise -seeds 5
//	ubasweep -protocol rotor -n 10,20,40 -adversary ghost -seeds 3
//	ubasweep -protocol approx -n 7,31 -adversary split
//	ubasweep -protocol renaming -n 7,13 -adversary ghost
//	ubasweep -protocol trb -n 7,13
//
// Columns: protocol, n, f, adversary, seed, rounds, deliveries, bytes,
// plus a protocol-specific result column. n and f describe the system the
// run builds: an -adversary none cell of size n runs its n - ⌊(n-1)/3⌋
// correct nodes alone, and its row says so.
//
// Chaos campaign mode runs seeded random Byzantine coalitions against
// every protocol family with online safety oracles attached, shrinking
// any violation to a minimal repro (replayable via `ubasim -repro`):
//
//	ubasweep -chaos -seeds 8
//	ubasweep -chaos -arenas consensus,broadcast -seeds 20 -repro-out shrunk.json
//	ubasweep -chaos -faults byzantine -seeds 8
//
// With -faults byzantine every cell additionally runs under a generated
// Byzantine-scoped fault plan (partitions quarantining the coalition,
// loss on its links, crash/recover churn); liveness oracles degrade
// gracefully across disrupted rounds while safety stays unconditional.
//
// The command exits non-zero if any oracle fired — a violation here is a
// real bug in a protocol, an oracle, or the engine.
//
// With -cpuprofile and -memprofile, ubasweep writes a CPU profile and a
// profile of the heap allocated (go tool pprof reads both) of the whole
// sweep or campaign, as ubasim does of its run:
//
//	ubasweep -chaos -chaos-n 127 -seeds 3 -faults byzantine -cpuprofile cpu.out
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"uba"
	"uba/internal/chaos"
	"uba/internal/profile"
	"uba/internal/simnet/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ubasweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ubasweep", flag.ContinueOnError)
	protocol := fs.String("protocol", "consensus", "consensus|rotor|rb|trb|approx|renaming|vector")
	sizes := fs.String("n", "4,7,13", "comma-separated system sizes (f = ⌊(n-1)/3⌋)")
	advNames := fs.String("adversary", "silent", "comma-separated adversaries")
	seeds := fs.Int("seeds", 3, "seeds per cell")
	chaosMode := fs.Bool("chaos", false, "run a chaos campaign with safety oracles instead of a CSV sweep")
	arenaNames := fs.String("arenas", "broadcast,rotor,consensus,approx,renaming,ordering",
		"chaos mode: comma-separated arenas")
	chaosN := fs.Int("chaos-n", 9, "chaos mode: system size (f = ⌊(n-1)/3⌋)")
	faults := fs.String("faults", "", `chaos mode: fault-plan generator ("" = clean network, "byzantine" = partition/loss/churn scoped to the coalition)`)
	reproOut := fs.String("repro-out", "", "chaos mode: write the first shrunk repro JSON here")
	jobs := fs.Int("jobs", 0, "cells run concurrently (0 = GOMAXPROCS); output is identical for every value")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep or campaign to this file")
	memProfile := fs.String("memprofile", "", "write a profile of the heap the sweep or campaign allocated to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds <= 0 {
		return fmt.Errorf("-seeds must be positive")
	}
	if *jobs < 0 {
		return fmt.Errorf("-jobs must be >= 0")
	}
	if *faults != "" && !*chaosMode {
		return fmt.Errorf("-faults requires -chaos")
	}
	prof := profile.Pause(*cpuProfile, *memProfile)
	defer prof.Restore()
	if err := prof.Start(); err != nil {
		return err
	}
	// A campaign that finds a violation returns an error; its profiles
	// are the ones most worth keeping, so they are written either way.
	var err error
	if *chaosMode {
		err = runChaos(*arenaNames, *chaosN, *seeds, *jobs, *faults, *reproOut, out)
	} else {
		err = runSweep(*protocol, *sizes, *advNames, *seeds, *jobs, out)
	}
	return errors.Join(err, prof.Stop())
}

// runSweep executes the CSV sweep mode: every protocol run of the
// sizes × adversaries × seeds grid, one row each, in grid order.
func runSweep(protocol, sizes, advNames string, seeds, jobs int, out io.Writer) error {
	ns, err := parseInts(sizes)
	if err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	var advs []uba.Adversary
	for _, name := range strings.Split(advNames, ",") {
		adv, err := uba.ParseAdversary(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		advs = append(advs, adv)
	}

	task := &sweepTask{protocol: protocol}
	for _, n := range ns {
		if n < 2 {
			return fmt.Errorf("n = %d too small", n)
		}
		f := (n - 1) / 3
		for _, adv := range advs {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				task.cells = append(task.cells, sweepCell{n: n, f: f, adv: adv, seed: seed})
			}
		}
	}
	task.rows = make([][]string, len(task.cells))
	task.errs = make([]error, len(task.cells))
	// The cells fan out over the process-wide simulation scheduler with
	// at most -jobs in flight; rows are written in cell order after the
	// barrier, so the CSV is byte-identical for every job count. A failed
	// cell fails the sweep before anything is written.
	var phase sched.Phase
	sched.Default().Run(&phase, task, len(task.cells), sweepJobs(jobs))
	for i, cell := range task.cells {
		if err := task.errs[i]; err != nil {
			return fmt.Errorf("%s n=%d adversary=%v seed=%d: %w",
				protocol, cell.n, cell.adv, cell.seed, err)
		}
	}
	w := csv.NewWriter(out)
	defer w.Flush()
	if err := w.Write([]string{
		"protocol", "n", "f", "adversary", "seed",
		"rounds", "deliveries", "bytes", "result",
	}); err != nil {
		return err
	}
	for i, cell := range task.cells {
		cfg := cell.config()
		record := append([]string{
			protocol,
			strconv.Itoa(cfg.N()),
			strconv.Itoa(cfg.N() - cfg.Correct),
			cell.adv.String(),
			strconv.FormatInt(cell.seed, 10),
		}, task.rows[i]...)
		if err := w.Write(record); err != nil {
			return err
		}
	}
	return nil
}

// sweepJobs resolves the -jobs flag: 0 delegates to the scheduler's
// budget (GOMAXPROCS by default), anything else caps in-flight cells.
func sweepJobs(jobs int) int {
	if jobs > 0 {
		return jobs
	}
	return sched.Default().Budget()
}

// sweepCell is one CSV row's coordinate in the n × adversary × seed
// matrix.
type sweepCell struct {
	n, f int
	adv  uba.Adversary
	seed int64
}

// sweepTask runs sweep cells as one scheduler phase: each Run(i)
// executes a full protocol instance and stores the row (or error) in
// its index-owned slot.
type sweepTask struct {
	protocol string
	cells    []sweepCell
	rows     [][]string
	errs     []error
}

// config is the cell's run configuration. Its N and Byzantine count
// describe the system the run builds, which is what the row reports:
// an AdversaryNone cell builds only its correct nodes.
func (cell sweepCell) config() uba.Config {
	return uba.Config{
		Correct: cell.n - cell.f, Byzantine: cell.f,
		Adversary: cell.adv, Seed: cell.seed,
	}
}

func (t *sweepTask) Run(i int) {
	cfg := t.cells[i].config()
	t.rows[i], t.errs[i] = runCell(t.protocol, cfg, cfg.Correct)
}

// runCell executes one protocol instance and returns
// [rounds, deliveries, bytes, result].
func runCell(protocol string, cfg uba.Config, g int) ([]string, error) {
	switch protocol {
	case "consensus":
		inputs := make([]float64, g)
		for i := range inputs {
			inputs[i] = float64(i % 2)
		}
		res, err := uba.Consensus(cfg, inputs)
		if err != nil {
			return nil, err
		}
		return cell(res.Rounds, res.Report.Deliveries, res.Report.Bytes,
			fmt.Sprintf("decision=%g", res.Decision)), nil
	case "rotor":
		res, err := uba.Rotor(cfg)
		if err != nil {
			return nil, err
		}
		return cell(res.Rounds, res.Report.Deliveries, res.Report.Bytes,
			fmt.Sprintf("goodRound=%d", res.GoodRound)), nil
	case "rb":
		res, err := uba.ReliableBroadcast(cfg, []byte("sweep"), 8)
		if err != nil {
			return nil, err
		}
		return cell(res.Rounds, res.Report.Deliveries, res.Report.Bytes,
			fmt.Sprintf("allAccepted=%v", res.AllAccepted)), nil
	case "trb":
		res, err := uba.TerminatingBroadcast(cfg, []byte("sweep"), true)
		if err != nil {
			return nil, err
		}
		return cell(res.Rounds, res.Report.Deliveries, res.Report.Bytes,
			fmt.Sprintf("delivered=%v", res.Delivered)), nil
	case "approx":
		inputs := make([]float64, g)
		for i := range inputs {
			inputs[i] = float64(i * 10)
		}
		res, err := uba.ApproximateAgreement(cfg, inputs)
		if err != nil {
			return nil, err
		}
		return cell(res.Report.Rounds, res.Report.Deliveries, res.Report.Bytes,
			fmt.Sprintf("rangeRatio=%.3f", res.RangeRatio())), nil
	case "renaming":
		res, err := uba.Renaming(cfg)
		if err != nil {
			return nil, err
		}
		return cell(res.Rounds, res.Report.Deliveries, res.Report.Bytes,
			fmt.Sprintf("setSize=%d", res.SetSize)), nil
	case "vector":
		inputs := make([]float64, g)
		for i := range inputs {
			inputs[i] = float64(i)
		}
		res, err := uba.InteractiveConsistency(cfg, inputs)
		if err != nil {
			return nil, err
		}
		return cell(res.Rounds, res.Report.Deliveries, res.Report.Bytes,
			fmt.Sprintf("entries=%d", len(res.Vector))), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", protocol)
	}
}

func cell(rounds int, deliveries, bytes int64, result string) []string {
	return []string{
		strconv.Itoa(rounds),
		strconv.FormatInt(deliveries, 10),
		strconv.FormatInt(bytes, 10),
		result,
	}
}

// chaosArenas maps -arenas names to chaos arenas.
var chaosArenas = map[string]chaos.Arena{
	"broadcast": chaos.ArenaBroadcast,
	"rotor":     chaos.ArenaRotor,
	"consensus": chaos.ArenaConsensus,
	"approx":    chaos.ArenaApprox,
	"renaming":  chaos.ArenaRenaming,
	"ordering":  chaos.ArenaOrdering,
}

// runChaos executes the chaos campaign mode: seeded coalitions per arena
// with oracles attached, shrinking any violation to a minimal repro.
// jobs caps concurrent scenarios (0 = GOMAXPROCS); the report, the exit
// status and the repro file are identical for every value. faults
// selects the campaign's fault-plan generator ("" or "byzantine").
func runChaos(arenaNames string, n, seeds, jobs int, faults, reproOut string, out io.Writer) error {
	cfg := chaos.DefaultCampaign()
	cfg.Seeds = seeds
	cfg.Jobs = jobs
	switch faults {
	case "":
	case chaos.FaultsByzantine:
		cfg.Faults = chaos.FaultsByzantine
	default:
		return fmt.Errorf("unknown -faults generator %q (want \"\" or %q)", faults, chaos.FaultsByzantine)
	}
	if n < 2 {
		return fmt.Errorf("-chaos-n = %d too small", n)
	}
	cfg.Byzantine = (n - 1) / 3
	cfg.Correct = n - cfg.Byzantine
	cfg.Arenas = cfg.Arenas[:0]
	for _, name := range strings.Split(arenaNames, ",") {
		arena, ok := chaosArenas[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown arena %q", name)
		}
		cfg.Arenas = append(cfg.Arenas, arena)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	report, err := chaos.RunCampaign(cfg, logf)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign: %d runs, %d violations, %d errors\n",
		report.Runs, len(report.Repros), len(report.Errors))
	if len(report.Repros) > 0 && reproOut != "" {
		data, err := chaos.EncodeRepro(report.Repros[0])
		if err != nil {
			return err
		}
		if err := os.WriteFile(reproOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote shrunk repro to %s (replay: ubasim -repro %s)\n", reproOut, reproOut)
	}
	if !report.Clean() {
		return fmt.Errorf("chaos campaign found %d violations and %d errors",
			len(report.Repros), len(report.Errors))
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
