// Command bench is the repository's benchmark: the single definition
// every performance claim about this repo is measured with. It drives
// five closed-loop workloads through the public uba.* entry points,
// checks every op's output, and reports end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run. See
// README.md in this directory.
//
//	go run ./bench                                    all workloads, both runs, full report
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                                  one run; last stdout line is the result
//	go run ./bench -compare a.json b.json             verdict per (workload, metric)
//	go run ./bench -record                            rewrite bench/expected.json for seed 1
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// expectedJSON holds the simulated statistics recorded for seed 1 at
// full size: workload name -> derived seed -> statistics.
//
//go:embed expected.json
var expectedJSON []byte

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the other side's median by which an end-to-end metric may get worse
// before -compare calls it worse; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// defaultSeconds is run_seconds of BENCHMARK.json: the timed window
// every comparison uses. The slowest workloads run 2.0 to 2.2 ops/s, so
// it gives their windows the 30 samples the host guard asks for even
// when the host is a fifth slower, and the driver's 114 runs with their
// set-ups still fit its time cap.
const defaultSeconds = 18

// endToEndMetrics are the metrics a regression is judged on. The op
// time is the window's 10th percentile, not its median: on a shared
// host interference only ever adds time, and between identical runs
// minutes apart the median moved by up to 40% where the low percentile
// moved half as much. The median, the tail and the throughput are
// reported with the per-layer metrics, unjudged.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_ms_p10", "ms", lower, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.05},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// perLayerMetrics lists every per-layer metric. A metric a workload
// cannot take (the campaign has no proxied Step, the control has no
// observer) is reported as 0 there; README.md says which apply where.
var perLayerMetrics = []metricDef{
	{"uba.build_ms", "ms", lower, 0},
	{"uba.collect_ms", "ms", lower, 0},
	{"uba.op_ms_p50", "ms", lower, 0},
	{"uba.ops_per_s", "1/s", higher, 0},
	{"uba.op_ms_tail", "ms", lower, 0},
	{"uba.tail_pct", "%", higher, 0},
	{"uba.mallocs_per_op", "count", lower, 0},
	{"uba.ns_per_delivery", "ns", lower, 0},
	{"core.step_ms", "ms", lower, 0},
	{"core.steps", "count", lower, 0},
	{"simnet.engine_ms", "ms", lower, 0},
	{"simnet.rounds", "count", lower, 0},
	{"simnet.broadcasts", "count", lower, 0},
	{"simnet.unicasts", "count", lower, 0},
	{"simnet.deliveries", "count", lower, 0},
	{"simnet.bytes", "count", lower, 0},
	{"simnet.setup_us", "us", lower, 0},
	{"simnet.close_ms", "ms", lower, 0},
	{"trace.materialize_ms", "ms", lower, 0},
	{"trace.alloc_mb", "MB", lower, 0},
	{"trace.events", "count", lower, 0},
	{"oracle.observe_ms", "ms", lower, 0},
	{"oracle.calls", "count", lower, 0},
	{"chaos.cell_ms.broadcast", "ms", lower, 0},
	{"chaos.cell_ms.rotor", "ms", lower, 0},
	{"chaos.cell_ms.consensus", "ms", lower, 0},
	{"chaos.cell_ms.approx", "ms", lower, 0},
	{"chaos.cell_ms.renaming", "ms", lower, 0},
	{"chaos.cell_ms.ordering", "ms", lower, 0},
	{"chaos.plan_us", "us", lower, 0},
	{"sched.speedup", "x", higher, 0},
	{"sched.dispatch_ns", "ns", lower, 0},
	{"wire.encode_ns", "ns", lower, 0},
	{"wire.decode_ns", "ns", lower, 0},
	{"bench.trace_base_ms", "ms", lower, 0},
	{"bench.traced_op_ms", "ms", lower, 0},
	{"bench.traced_ops", "count", higher, 0},
	{"bench.trace_overhead_pct", "%", lower, 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits renders measured values under the names and units of defs;
// a metric the run did not take is 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

const (
	statusOK = "ok"
	// statusUnresolved marks a workload whose window finished too few
	// ops for its medians to mean anything; the full report withholds
	// its end-to-end metrics.
	statusUnresolved = "unresolved"
)

// workloadReport is one workload's part of a report.
type workloadReport struct {
	Name       string `json:"name"`
	Status     string `json:"status"`
	Attempted  int    `json:"ops_attempted"`
	Failed     int    `json:"ops_failed"`
	Samples    int    `json:"samples"`
	FirstError string `json:"first_error,omitempty"`
	// Fingerprints are the simulated statistics per derived seed; two
	// reports whose fingerprints differ did not run the same work.
	Fingerprints map[string]simStats    `json:"fingerprints"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

type provenance struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type report struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadReport `json:"workloads"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// Pinned so a run means the same on hosts of different widths;
	// children apply the same rule and so run at the same value.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print one result line (default: all, full report)")
	seed := fs.Int64("seed", 1, "benchmark seed S; ops cycle through Config.Seed values S*1000+k")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed window; fixed in BENCHMARK.json, do not vary it between sides of a comparison")
	traced := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	outDir := fs.String("out", "bench/out", "directory for span files")
	child := fs.Bool("child", false, "internal: run one op of -workload on Config.Seed -seed and print a child report")
	harness := fs.String("harness", harnessNone, "internal: with -child, run the op through the proxy harness (on|off)")
	small := fs.Bool("small", false, "internal: reduced sizes, for tests")
	record := fs.Bool("record", false, "record the simulated statistics of seed 1 into bench/expected.json")
	compare := fs.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	window := time.Duration(*seconds * float64(time.Second))

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *record:
		return recordExpected("bench/expected.json")
	case *child:
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(childOp(w, sizesFor(*small), *seed, *harness))
	}

	var expected map[string]map[string]simStats
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		var rep workloadReport
		var res result
		if *traced == 0 {
			rep = measureEndToEnd(w, *small, *seed, window, expected[w.name])
			res.Metrics = rep.EndToEnd
			if rep.Status == statusUnresolved {
				fmt.Fprintf(os.Stderr, "bench: %s finished %d ops, fewer than %d: medians unresolved on this host\n", w.name, rep.Samples, minSamples)
			}
		} else {
			if rep, err = measurePerLayer(w, *small, *seed, window, expected[w.name], *outDir); err != nil {
				return err
			}
			res.Metrics = rep.PerLayer
		}
		res.Correct, res.Attempted, res.Failed = rep.Failed == 0, rep.Attempted, rep.Failed
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return err
		}
		if rep.Failed > 0 {
			return fmt.Errorf("%d of %d ops failed; first: %s", rep.Failed, rep.Attempted, rep.FirstError)
		}
		return nil
	}

	full := report{Provenance: provenance{
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     commit(),
		Seed:       *seed,
		Seconds:    *seconds,
	}}
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(os.Stderr, "bench: %s\n", w.name)
		rep := measureEndToEnd(w, *small, *seed, window, expected[w.name])
		layer, err := measurePerLayer(w, *small, *seed, window, expected[w.name], *outDir)
		if err != nil {
			return err
		}
		rep.Attempted += layer.Attempted
		rep.Failed += layer.Failed
		if rep.FirstError == "" {
			rep.FirstError = layer.FirstError
		}
		for s, st := range layer.Fingerprints {
			if have, ok := rep.Fingerprints[s]; ok && have != st {
				rep.Failed++
				rep.FirstError = fmt.Sprintf("%s seed %s: traced run saw %+v, untraced run %+v", w.name, s, st, have)
			}
		}
		rep.PerLayer = layer.PerLayer
		if rep.Status == statusUnresolved {
			rep.EndToEnd = nil
		}
		failed += rep.Failed
		full.Workloads = append(full.Workloads, rep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(full); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// commit names the checked-out commit, or "unknown" outside a git
// work tree (the benchmark driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// recordExpected runs every workload's op once per derived seed of
// benchmark seed 1, at full size, and writes the simulated statistics.
func recordExpected(path string) error {
	out := make(map[string]map[string]simStats)
	for i := range workloads {
		w := &workloads[i]
		out[w.name] = make(map[string]simStats)
		for k := 0; k < seedsPerRun; k++ {
			d := derivedSeed(1, k)
			st, err := w.op(fullSizes, d)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, d, err)
			}
			out[w.name][strconv.FormatInt(d, 10)] = st
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
