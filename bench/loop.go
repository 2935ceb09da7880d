package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// warmupOps is how many ops one set-up runs before a timed window.
	warmupOps = 5
	// setupRepeats is how many times a run sets up; setup_s is the
	// median, so one slow first set-up does not decide it.
	setupRepeats = 3
	// rssProbes is how many fresh single-op children give peak_rss_mb
	// for a workload whose ops run in-process. A cold consensus child
	// peaks at either of two levels 25% apart depending on when its GC
	// cycles land, and on a busy host most land low; eight children
	// make it unlikely that none reaches the higher one.
	rssProbes = 8
	// minSamples is the host guard: a window that finished fewer ops
	// has no trustworthy median.
	minSamples = 30
)

// sample is one completed op.
type sample struct {
	ms      float64
	stats   simStats
	alloc   uint64 // bytes and objects allocated during the op
	mallocs uint64
	hwmKB   int64 // fresh ops only: the child's peak RSS
}

// childReport is what `bench -child` prints: one op measured from
// inside a fresh process, around the call.
type childReport struct {
	OpNS       int64    `json:"op_ns"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Mallocs    uint64   `json:"mallocs"`
	HWMKB      int64    `json:"hwm_kb"`
	Stats      simStats `json:"stats"`
	Layers     *layers  `json:"layers,omitempty"`
	Spans      []span   `json:"spans,omitempty"`
	Err        string   `json:"err,omitempty"`
}

// Harness selectors for a child op and for the traced loop.
const (
	harnessNone = ""    // the public entry point
	harnessOn   = "on"  // proxy harness with the facade's observer
	harnessOff  = "off" // proxy harness without an observer
)

// childOp runs one op inside this (fresh) process and reports it.
func childOp(w *workload, sz sizes, seed int64, harness string) childReport {
	var rep childReport
	var log spanLog
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var err error
	if harness == harnessNone {
		rep.Stats, err = w.op(sz, seed)
	} else {
		var l layers
		l, err = w.traced(sz, seed, harness == harnessOn, &log, 0)
		rep.Layers, rep.Stats, rep.Spans = &l, l.Stats, log.spans
	}
	rep.OpNS = int64(time.Since(start))
	runtime.ReadMemStats(&ms1)
	rep.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rep.Mallocs = ms1.Mallocs - ms0.Mallocs
	if err == nil {
		rep.HWMKB, err = peakRSSKB()
	}
	if err != nil {
		rep.Err = err.Error()
	}
	return rep
}

// peakRSSKB reads this process's resident-set high-water mark.
func peakRSSKB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runner issues the ops of one workload and checks each one.
type runner struct {
	w     *workload
	sz    sizes
	small bool
	seed  int64
	// expect holds the simulated statistics every op of a derived seed
	// must reproduce: from expected.json where it has them, otherwise
	// from the first op of that derived seed.
	expect    map[int64]simStats
	attempted int
	failed    int
	firstErr  error
}

func newRunner(w *workload, small bool, seed int64, recorded map[string]simStats) *runner {
	r := &runner{w: w, sz: sizesFor(small), small: small, seed: seed, expect: make(map[int64]simStats)}
	for k := 0; k < seedsPerRun; k++ {
		d := derivedSeed(seed, k)
		if st, ok := recorded[strconv.FormatInt(d, 10)]; ok && !small {
			r.expect[d] = st
		}
	}
	return r
}

// check counts one attempted op and fails it on an error or on
// simulated statistics that differ from the expected ones.
func (r *runner) check(seed int64, st simStats, err error) bool {
	r.attempted++
	if err == nil {
		want, ok := r.expect[seed]
		if !ok {
			r.expect[seed] = st
		} else if st != want {
			err = fmt.Errorf("simulated statistics %+v differ from expected %+v", st, want)
		}
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s seed %d: %w", r.w.name, seed, err)
		}
		return false
	}
	return true
}

// spawn runs one op in a fresh child process.
func (r *runner) spawn(seed int64, harness string) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	args := []string{"-child", "-workload", r.w.name, "-seed", strconv.FormatInt(seed, 10), "-harness", harness}
	if r.small {
		args = append(args, "-small")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, fmt.Errorf("child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return childReport{}, fmt.Errorf("child output: %w", err)
	}
	if rep.Err != "" {
		return rep, errors.New(rep.Err)
	}
	return rep, nil
}

// do runs op number k of the workload through the public entry point:
// in-process, or in a fresh child when the workload says so. Either
// way the op's time and allocation are measured around the call, in
// the process that makes it.
func (r *runner) do(k int) (sample, bool) {
	seed := derivedSeed(r.seed, k)
	if r.w.fresh {
		rep, err := r.spawn(seed, harnessNone)
		s := sample{ms: float64(rep.OpNS) / 1e6, stats: rep.Stats, alloc: rep.AllocBytes, mallocs: rep.Mallocs, hwmKB: rep.HWMKB}
		return s, r.check(seed, rep.Stats, err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	st, err := r.w.op(r.sz, seed)
	d := time.Since(start)
	runtime.ReadMemStats(&ms1)
	s := sample{ms: float64(d) / 1e6, stats: st, alloc: ms1.TotalAlloc - ms0.TotalAlloc, mallocs: ms1.Mallocs - ms0.Mallocs}
	return s, r.check(seed, st, err)
}

// window is one timed closed loop.
type window struct {
	samples []sample
	elapsed time.Duration
}

// loop issues ops k0, k0+1, ... back to back until d has passed; the
// op in flight when it passes is completed and counted.
func (r *runner) loop(k0 int, d time.Duration) window {
	var win window
	start := time.Now()
	for k := k0; time.Since(start) < d; k++ {
		if s, ok := r.do(k); ok {
			win.samples = append(win.samples, s)
		}
	}
	win.elapsed = time.Since(start)
	return win
}

// column extracts one figure of every sample.
func (win window) column(f func(sample) float64) []float64 {
	out := make([]float64, len(win.samples))
	for i, s := range win.samples {
		out[i] = f(s)
	}
	return out
}

func (win window) opMS() []float64 { return win.column(func(s sample) float64 { return s.ms }) }

// mb is the MB of every memory metric: 10^6 bytes.
const mb = 1e6

// measureEndToEnd is the untraced run of one workload: set-ups, the
// memory probe, then the timed window through the public entry points.
func measureEndToEnd(w *workload, small bool, seed int64, d time.Duration, recorded map[string]simStats) workloadReport {
	r := newRunner(w, small, seed, recorded)
	setups := make([]float64, setupRepeats)
	for i := range setups {
		start := time.Now()
		for k := 0; k < warmupOps; k++ {
			r.do(i*warmupOps + k)
		}
		setups[i] = time.Since(start).Seconds()
	}

	// peak_rss_mb is the highest resident-set high-water mark among fresh
	// processes that each run one op: the probe's children, or the
	// window's own.
	var peakKB int64
	if !w.fresh {
		for k := 0; k < rssProbes; k++ {
			d := derivedSeed(seed, k)
			rep, err := r.spawn(d, harnessNone)
			if r.check(d, rep.Stats, err) {
				peakKB = max(peakKB, rep.HWMKB)
			}
		}
	}

	win := r.loop(setupRepeats*warmupOps, d)
	for _, s := range win.samples {
		peakKB = max(peakKB, s.hwmKB)
	}

	rep := r.report()
	rep.Samples = len(win.samples)
	if rep.Samples < minSamples {
		rep.Status = statusUnresolved
	}
	if rep.Samples > 0 {
		rep.EndToEnd = withUnits(endToEndMetrics, map[string]float64{
			"setup_s":         median(setups),
			"op_ms_p10":       percentile(win.opMS(), 10),
			"alloc_mb_per_op": median(win.column(func(s sample) float64 { return float64(s.alloc) })) / mb,
			"peak_rss_mb":     float64(peakKB) * 1024 / mb,
		})
	}
	return rep
}

// report starts a workload report from what the runner has seen.
func (r *runner) report() workloadReport {
	rep := workloadReport{
		Name:         r.w.name,
		Status:       statusOK,
		Attempted:    r.attempted,
		Failed:       r.failed,
		Fingerprints: make(map[string]simStats, len(r.expect)),
	}
	for seed, st := range r.expect {
		rep.Fingerprints[strconv.FormatInt(seed, 10)] = st
	}
	if r.firstErr != nil {
		rep.FirstError = r.firstErr.Error()
	}
	return rep
}
