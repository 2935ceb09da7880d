package main

import (
	"path/filepath"
	"sort"
	"time"
)

const (
	// tracedWarmups is how many traced ops run before traced ops count.
	tracedWarmups = 2
	// tracedMinOps keeps the traced medians from resting on too few
	// ops when the host is slow: the loop runs past its time share
	// until it has this many.
	tracedMinOps = 5
	// microRepeats is how many times each micro-measurement of a fixed
	// cost (network set-up, wire codec, scheduler dispatch) repeats.
	microRepeats = 5
)

// measurePerLayer is the traced run of one workload. Half the time
// goes to an untraced loop through the public entry points (the base
// the tracing overhead is measured against, and the tail and
// allocation-count diagnostics); the other half to the same ops
// through the proxy harness, alternating the harness with the facade's
// observer and the one without it so their difference prices the
// observe layer. Spans are written to outDir when the run ends.
func measurePerLayer(w *workload, small bool, seed int64, d time.Duration, recorded map[string]simStats, outDir string) (workloadReport, error) {
	r := newRunner(w, small, seed, recorded)
	for k := 0; k < tracedWarmups; k++ {
		r.do(k)
	}
	win := r.loop(tracedWarmups, d/2)
	if len(win.samples) == 0 {
		return r.report(), nil // every op failed, and the report says so
	}

	m := make(map[string]float64)
	var log spanLog
	var tracedMS []float64
	var err error
	if w.traced != nil {
		tracedMS, err = r.traceHarness(&log, d/2, m)
	} else {
		tracedMS, err = r.traceCampaign(&log, d/2, m)
	}
	if err != nil {
		return workloadReport{}, err
	}
	if err := r.micro(m); err != nil {
		return workloadReport{}, err
	}

	untraced, n := win.opMS(), float64(len(win.samples))
	base := median(untraced)
	m["uba.op_ms_p50"] = base
	m["uba.ops_per_s"] = n / win.elapsed.Seconds()
	m["uba.op_ms_tail"], m["uba.tail_pct"] = tail(untraced)
	m["uba.mallocs_per_op"] = median(win.column(func(s sample) float64 { return float64(s.mallocs) }))
	if del := win.samples[0].stats.Deliveries; del > 0 {
		m["uba.ns_per_delivery"] = base * 1e6 / float64(del)
	}
	if w.traced != nil {
		m["bench.trace_base_ms"] = base
	} else {
		// The campaign's trace base is the public campaign at Jobs 1;
		// the untraced loop ran it at Jobs 0.
		m["sched.speedup"] = m["bench.trace_base_ms"] / base
	}
	m["bench.traced_op_ms"] = median(tracedMS)
	m["bench.traced_ops"] = float64(len(tracedMS))
	m["bench.trace_overhead_pct"] = 100 * (m["bench.traced_op_ms"]/m["bench.trace_base_ms"] - 1)

	rep := r.report()
	rep.Samples = len(win.samples)
	rep.PerLayer = withUnits(perLayerMetrics, m)
	return rep, log.write(filepath.Join(outDir, "trace-"+w.name+".json"))
}

// harnessOp runs one op through the proxy harness, in a fresh child
// when the workload's ops are fresh, and folds its spans into log.
func (r *runner) harnessOp(seed int64, observe bool, log *spanLog, op int) (layers, error) {
	if !r.w.fresh {
		return r.w.traced(r.sz, seed, observe, log, op)
	}
	harness := harnessOff
	if observe {
		harness = harnessOn
	}
	rep, err := r.spawn(seed, harness)
	if err != nil {
		return layers{}, err
	}
	log.merge(rep.Spans, op)
	return *rep.Layers, nil
}

// traceHarness is the traced loop of a workload that has a proxy
// harness. It fills the uba.*, core.*, simnet.*, trace.* and oracle.*
// metrics with per-op medians and returns the traced op times.
func (r *runner) traceHarness(log *spanLog, d time.Duration, m map[string]float64) ([]float64, error) {
	var on, off []layers
	start := time.Now()
	for i := 0; time.Since(start) < d || len(off) < tracedWarmups+tracedMinOps; i++ {
		seed := derivedSeed(r.seed, i)
		// Alternate which harness goes first so neither always inherits
		// the other's garbage.
		for _, observe := range []bool{i%2 == 0, i%2 != 0} {
			if observe && !r.w.observed {
				continue
			}
			op := 2*i + 1
			if !observe {
				op++
			}
			l, err := r.harnessOp(seed, observe, log, op)
			// The harness must be the op seen from outside: its simulated
			// statistics are held to the public entry point's.
			if !r.check(seed, l.Stats, err) {
				return nil, r.firstErr
			}
			if observe {
				on = append(on, l)
			} else {
				off = append(off, l)
			}
		}
	}
	on, off = on[min(tracedWarmups, len(on)):], off[tracedWarmups:]

	// primary is the harness that is this workload's op from outside.
	primary := off
	if r.w.observed {
		primary = on
	}
	ms := func(ls []layers, f func(layers) int64) float64 {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = float64(f(l)) / 1e6
		}
		return median(xs)
	}
	m["uba.build_ms"] = ms(primary, func(l layers) int64 { return l.BuildNS })
	m["uba.collect_ms"] = ms(primary, layers.collectNS)
	m["core.step_ms"] = ms(primary, func(l layers) int64 { return l.StepNS })
	m["core.steps"] = float64(primary[0].Steps)
	m["simnet.engine_ms"] = ms(off, layers.engineNS)
	m["simnet.close_ms"] = ms(primary, func(l layers) int64 { return l.CloseNS })
	st := primary[0].Stats
	m["simnet.rounds"], m["simnet.broadcasts"], m["simnet.unicasts"] = float64(st.Rounds), float64(st.Broadcasts), float64(st.Unicasts)
	m["simnet.deliveries"], m["simnet.bytes"] = float64(st.Deliveries), float64(st.Bytes)
	if r.w.observed {
		m["oracle.observe_ms"] = ms(on, func(l layers) int64 { return l.ObserveNS })
		m["oracle.calls"] = float64(on[0].ObserveCall)
		m["trace.events"] = float64(on[0].Events)
		// on[i] and off[i] ran the same seed back to back.
		dt, da := make([]float64, len(on)), make([]float64, len(on))
		for i := range on {
			dt[i] = float64(on[i].engineNS()-off[i].engineNS()) / 1e6
			da[i] = (float64(on[i].AllocBytes) - float64(off[i].AllocBytes)) / mb
		}
		m["trace.materialize_ms"], m["trace.alloc_mb"] = median(dt), median(da)
	}
	out := make([]float64, len(primary))
	for i, l := range primary {
		out[i] = float64(l.OpNS) / 1e6
	}
	return out, nil
}

// traceCampaign is the traced loop of the campaign: its cells rebuilt
// and run inline one at a time, alternated with the public campaign at
// Jobs 1, which is both the base the inline run's overhead is measured
// against and the numerator of the scheduler's speed-up.
func (r *runner) traceCampaign(log *spanLog, d time.Duration, m map[string]float64) ([]float64, error) {
	var inline []campaignLayers
	var serialMS []float64
	start := time.Now()
	for i := 0; time.Since(start) < d || len(inline) < tracedWarmups+tracedMinOps; i++ {
		cl, err := tracedCampaign(r.sz.Campaign, log, i+1)
		if !r.check(derivedSeed(r.seed, i), simStats{Runs: cl.Cells}, err) {
			return nil, r.firstErr
		}
		inline = append(inline, cl)
		t0 := time.Now()
		st, err := runCampaign(r.sz.Campaign, 1)
		serialMS = append(serialMS, float64(time.Since(t0))/1e6)
		if !r.check(derivedSeed(r.seed, i), st, err) {
			return nil, r.firstErr
		}
	}
	inline, serialMS = inline[tracedWarmups:], serialMS[tracedWarmups:]

	arenas := make([]string, 0, len(inline[0].ArenaNS))
	for a := range inline[0].ArenaNS {
		arenas = append(arenas, a)
	}
	sort.Strings(arenas)
	perArena := float64(inline[0].Cells / len(arenas))
	for _, a := range arenas {
		xs := make([]float64, len(inline))
		for i, cl := range inline {
			xs[i] = float64(cl.ArenaNS[a]) / perArena / 1e6
		}
		m["chaos.cell_ms."+a] = median(xs)
	}
	plan, out := make([]float64, len(inline)), make([]float64, len(inline))
	for i, cl := range inline {
		plan[i] = float64(cl.PlanNS) / float64(cl.Cells) / 1e3
		out[i] = float64(cl.OpNS) / 1e6
	}
	m["chaos.plan_us"] = median(plan)
	m["simnet.rounds"] = float64(inline[0].Rounds)
	m["bench.trace_base_ms"] = median(serialMS)
	return out, nil
}

// micro fills the fixed costs that no op isolates: building and
// closing a network of the workload's size, the wire codec, and an
// empty dispatch through the shared scheduler.
func (r *runner) micro(m map[string]float64) error {
	correct, byz := r.w.nodes(r.sz)
	setup := make([]float64, 0, 20*microRepeats)
	for i := 0; i < cap(setup); i++ {
		ns, err := netSetupNS(derivedSeed(r.seed, i), correct, byz)
		if err != nil {
			return err
		}
		setup = append(setup, float64(ns)/1e3)
	}
	m["simnet.setup_us"] = median(setup)

	enc, dec, disp := make([]float64, microRepeats), make([]float64, microRepeats), make([]float64, microRepeats)
	for i := 0; i < microRepeats; i++ {
		var err error
		if enc[i], dec[i], err = wireCostNS(2000); err != nil {
			return err
		}
		disp[i] = schedDispatchNS(r.sz.Campaign.cells(), 2000)
	}
	m["wire.encode_ns"], m["wire.decode_ns"], m["sched.dispatch_ns"] = median(enc), median(dec), median(disp)
	return nil
}
