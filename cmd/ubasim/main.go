// Command ubasim runs a single protocol instance of the library and
// prints its outcome and traffic report.
//
// Usage:
//
//	ubasim -protocol consensus -g 7 -f 2 -adversary split -seed 3
//	ubasim -protocol rotor -g 10 -f 3 -adversary ghost
//	ubasim -protocol approx -g 7 -f 2 -adversary split
//	ubasim -protocol rb -g 7 -f 2
//	ubasim -protocol trb -g 7 -f 2
//	ubasim -protocol renaming -g 9 -f 2 -adversary ghost
//	ubasim -protocol vector -g 7 -f 2
//	ubasim -protocol impossibility -timing async
//	ubasim -repro shrunk.json
//
// With -repro, ubasim replays a minimized chaos repro file (produced by
// `ubasweep -chaos` or internal/chaos.Shrink) and reports whether the
// recorded oracle violation reproduces.
//
// With -stats, ubasim prints one more line after the run — its wall
// time, the heap it allocated and the process's peak resident set size:
//
//	stats: wall_ms=… alloc_mb=… peak_rss_mb=…
//
// With -warm k, ubasim runs the same configuration k times in one
// process and prints only the last run, so -stats reports a warm run:
// its pooled scratch already grown by the runs before it. Peak RSS is
// still the whole process's.
//
// With -cpuprofile and -memprofile, ubasim writes a CPU profile and a
// profile of the heap allocated (go tool pprof reads both) of the last
// run alone, so with -warm k they profile a warm run:
//
//	ubasim -protocol rotor -g 683 -f 340 -warm 4 -stats -cpuprofile cpu.out
//
// A run that fails — a bad flag value included — prints only its error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"uba"
	"uba/internal/chaos"
	"uba/internal/profile"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ubasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ubasim", flag.ContinueOnError)
	protocol := fs.String("protocol", "consensus", "consensus|rotor|rb|trb|approx|renaming|vector|impossibility")
	g := fs.Int("g", 7, "number of correct nodes")
	f := fs.Int("f", 2, "number of Byzantine nodes")
	advName := fs.String("adversary", "silent", "none|silent|crash|split|ghost|noise")
	seed := fs.Int64("seed", 1, "deterministic seed")
	timing := fs.String("timing", "async", "impossibility timing: sync|semisync|async")
	traceRounds := fs.Int("trace", 0, "print a message transcript of the first N rounds")
	reproPath := fs.String("repro", "", "replay a chaos repro JSON file and exit")
	stats := fs.Bool("stats", false, "after the run, print its wall time, heap allocated and the process's peak RSS")
	warm := fs.Int("warm", 1, "run the configuration this many times in one process and print only the last run (peak RSS stays the process's)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the last run to this file")
	memProfile := fs.String("memprofile", "", "write a profile of the heap the last run allocated to this file")
	jobs := fs.Int("jobs", 0, "how many goroutines step the run's nodes (0 = inline); the shared simulation scheduler's budget becomes min(jobs, GOMAXPROCS), also for a -repro replay; output is identical for every value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-jobs must be >= 0")
	}
	if *traceRounds < 0 {
		return fmt.Errorf("-trace must be >= 0")
	}
	if *warm < 1 {
		return fmt.Errorf("-warm must be >= 1")
	}
	if *protocol == "impossibility" && *traceRounds > 0 {
		return fmt.Errorf("-trace does not apply to -protocol impossibility: the demo runs on the event-driven network, which records no transcript")
	}
	if *jobs > 0 {
		// Bound the process-wide scheduler: every simulation in this
		// process — the run's own step phase (capped at -jobs below), a
		// -repro replay — draws from this one budget. Step tasks never
		// block, so workers beyond GOMAXPROCS could not run; the scheduler
		// parks one goroutine per budget unit, so an unbounded -jobs
		// would only buy memory.
		sched.SetDefaultBudget(min(*jobs, runtime.GOMAXPROCS(0)))
	}
	prof := profile.Pause(*cpuProfile, *memProfile)
	defer prof.Restore()
	if *reproPath != "" {
		for range *warm - 1 {
			if err := replayRepro(*reproPath, io.Discard); err != nil {
				return err
			}
		}
		if err := prof.Start(); err != nil {
			return err
		}
		meter := startMeter(*stats)
		if err := replayRepro(*reproPath, out); err != nil {
			return err
		}
		cost := meter.stop()
		if err := prof.Stop(); err != nil {
			return err
		}
		return meter.report(out, cost)
	}

	adv, err := uba.ParseAdversary(*advName)
	if err != nil {
		return err
	}
	cfg := uba.Config{
		Correct: *g, Byzantine: *f, Adversary: adv,
		Seed: *seed, Workers: *jobs,
	}
	var transcript *trace.EventLog
	if *traceRounds > 0 {
		transcript = trace.NewEventLog(0)
		cfg.EventLog = transcript
	}
	for range *warm - 1 {
		warmCfg := cfg
		if transcript != nil {
			warmCfg.EventLog = trace.NewEventLog(0)
		}
		if err := simulate(*protocol, warmCfg, *timing, io.Discard); err != nil {
			return err
		}
	}
	var result bytes.Buffer
	if err := prof.Start(); err != nil {
		return err
	}
	meter := startMeter(*stats)
	if err := simulate(*protocol, cfg, *timing, &result); err != nil {
		return err
	}
	cost := meter.stop()
	if err := prof.Stop(); err != nil {
		return err
	}
	if *protocol == "impossibility" {
		// The demo builds its own system: two sides of g correct nodes,
		// no coalition.
		fmt.Fprintf(out, "n=%d (two sides of g=%d)  timing=%s  seed=%d\n", 2*cfg.Correct, cfg.Correct, *timing, *seed)
	} else {
		fmt.Fprintf(out, "n=%d (g=%d, f=%d)  adversary=%v  seed=%d  resilient(n>3f)=%v\n",
			cfg.N(), cfg.Correct, cfg.N()-cfg.Correct, adv, *seed, cfg.Resilient())
	}
	if _, err := result.WriteTo(out); err != nil {
		return err
	}
	if transcript != nil {
		fmt.Fprintln(out, "--- transcript ---")
		if err := transcript.Render(out, *traceRounds); err != nil {
			return err
		}
	}
	return meter.report(out, cost)
}

// meter measures one run for -stats; the zero meter measures nothing.
type meter struct {
	on    bool
	start time.Time
	alloc uint64 // runtime.MemStats.TotalAlloc at the start
}

// cost is what a meter measured: wall time and bytes allocated.
type cost struct {
	wall  time.Duration
	alloc uint64
}

func startMeter(on bool) meter {
	if !on {
		return meter{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{on: true, start: time.Now(), alloc: ms.TotalAlloc}
}

// stop reads the wall time and the heap allocated since the start.
func (m meter) stop() cost {
	if !m.on {
		return cost{}
	}
	wall := time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{wall: wall, alloc: ms.TotalAlloc - m.alloc}
}

// report prints the stats line of c, with the process's peak resident
// set size so far, if the meter is on.
func (m meter) report(out io.Writer, c cost) error {
	if !m.on {
		return nil
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("-stats: %w", err)
	}
	_, err := fmt.Fprintf(out, "stats: wall_ms=%.3f alloc_mb=%.3f peak_rss_mb=%.1f\n",
		float64(c.wall.Microseconds())/1e3, float64(c.alloc)/(1<<20), float64(ru.Maxrss)/(1<<10)) // Maxrss is in KiB
	return err
}

// simulate runs one instance of protocol under cfg and writes its outcome
// to out.
func simulate(protocol string, cfg uba.Config, timing string, out io.Writer) error {
	g := cfg.Correct
	switch protocol {
	case "consensus":
		res, err := uba.Consensus(cfg, inputsOf(g, func(i int) float64 { return float64(i % 2) }))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "decision=%v rounds=%d\n%v\n", res.Decision, res.Rounds, res.Report)
	case "rotor":
		res, err := uba.Rotor(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d goodRound=%d coordinators=%d\n%v\n",
			res.Rounds, res.GoodRound, len(res.Coordinators), res.Report)
	case "rb":
		res, err := uba.ReliableBroadcast(cfg, []byte("payload"), 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "allAccepted=%v acceptRounds=%v\n%v\n",
			res.AllAccepted, res.AcceptRounds, res.Report)
	case "trb":
		res, err := uba.TerminatingBroadcast(cfg, []byte("payload"), true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "delivered=%v body=%q rounds=%d\n%v\n",
			res.Delivered, res.Body, res.Rounds, res.Report)
	case "approx":
		res, err := uba.ApproximateAgreement(cfg, inputsOf(g, func(i int) float64 { return float64(i * 10) }))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "inputs=[%v,%v] outputs=[%v,%v] ratio=%.3f\n%v\n",
			res.InputLo, res.InputHi, res.OutputLo, res.OutputHi, res.RangeRatio(), res.Report)
	case "renaming":
		res, err := uba.Renaming(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d setSize=%d\n", res.Rounds, res.SetSize)
		type entry struct {
			id   uint64
			name int
		}
		entries := make([]entry, 0, len(res.Names))
		for id, name := range res.Names {
			entries = append(entries, entry{id, name})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
		for _, e := range entries {
			fmt.Fprintf(out, "  %d -> %d\n", e.id, e.name)
		}
		fmt.Fprintf(out, "%v\n", res.Report)
	case "vector":
		res, err := uba.InteractiveConsistency(cfg, inputsOf(g, func(i int) float64 { return float64(i * 100) }))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d vector entries=%d\n", res.Rounds, len(res.Vector))
		for _, e := range res.Vector {
			fmt.Fprintf(out, "  node %d -> %g\n", e.Node, e.Value)
		}
		fmt.Fprintf(out, "%v\n", res.Report)
	case "impossibility":
		var model uba.TimingModel
		switch timing {
		case "sync":
			model = uba.TimingSynchronous
		case "semisync":
			model = uba.TimingSemiSync
		case "async":
			model = uba.TimingAsync
		default:
			return fmt.Errorf("unknown timing %q", timing)
		}
		res, err := uba.ImpossibilityDemo(model, g, cfg.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "model=%v agreement=%v decisions=%d\n", model, res.Agreement, len(res.Decisions))
	default:
		return fmt.Errorf("unknown protocol %q", protocol)
	}
	return nil
}

// inputsOf returns one input per correct node, x(i) for node i. A
// negative g yields none, so the facade rejects the size with the same
// error every protocol gives.
func inputsOf(g int, x func(i int) float64) []float64 {
	inputs := make([]float64, max(g, 0))
	for i := range inputs {
		inputs[i] = x(i)
	}
	return inputs
}

// replayRepro loads a minimized chaos repro and re-runs its scenario.
// Exit status is non-zero when the recorded oracle does not fire again
// (which, scenarios being deterministic, indicates the repro file does
// not match the library version).
func replayRepro(path string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	repro, err := chaos.DecodeRepro(data)
	if err != nil {
		return err
	}
	s := repro.Scenario
	fmt.Fprintf(out, "repro: arena=%v g=%d f=%d seed=%d maxRounds=%d",
		s.Arena, s.Correct, len(s.Slots), s.Seed, s.MaxRounds)
	if s.Twin != "" {
		fmt.Fprintf(out, " twin=%s", s.Twin)
	}
	fmt.Fprintln(out)
	for i, slot := range s.Slots {
		fmt.Fprintf(out, "  slot %d: %s", i, slot.Strategy)
		if slot.Seed != 0 {
			fmt.Fprintf(out, " seed=%d", slot.Seed)
		}
		if slot.Crash != 0 {
			fmt.Fprintf(out, " crashAfter=%d", slot.Crash)
		}
		fmt.Fprintln(out)
	}
	if s.Faults != nil {
		fmt.Fprintf(out, "  faults: seed=%d\n", s.Faults.Seed)
		for _, e := range s.Faults.Events {
			fmt.Fprintf(out, "    round %d: %s", e.Round, e.Kind)
			if len(e.Groups) > 0 {
				fmt.Fprintf(out, " groups=%v", e.Groups)
			}
			if e.Node != 0 {
				fmt.Fprintf(out, " node=%d", e.Node)
			}
			if e.From != 0 {
				fmt.Fprintf(out, " from=%d", e.From)
			}
			if e.To != 0 {
				fmt.Fprintf(out, " to=%d", e.To)
			}
			if e.Rate != 0 {
				fmt.Fprintf(out, " rate=%g", e.Rate)
			}
			if e.SendQuota != 0 {
				fmt.Fprintf(out, " sendQuota=%d", e.SendQuota)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "expected: %s at round %d: %s\n",
		repro.Violation.Oracle, repro.Violation.Round, repro.Violation.Detail)
	outcome, err := repro.Replay()
	if err != nil {
		return err
	}
	v, _ := outcome.Fired(repro.Violation.Oracle)
	fmt.Fprintf(out, "replayed: %s at round %d: %s\n", v.Oracle, v.Round, v.Detail)
	if v != repro.Violation {
		return fmt.Errorf("replayed violation differs from recorded one")
	}
	fmt.Fprintln(out, "verdict reproduced")
	return nil
}
