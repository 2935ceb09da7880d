package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uba"
)

// TestMain lets the test binary stand in for the bench binary when a
// fresh-process op spawns it with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestHarnessEquivalence holds the traced harness to the public entry
// points: same decision or chain, same simulated statistics, with and
// without the observer, for three seeds per family.
func TestHarnessEquivalence(t *testing.T) {
	sz := smallSizes
	for _, seed := range []int64{1000, 1001, 2003} {
		inputs := consensusInputs(sz)
		pub, err := uba.Consensus(uba.Config{
			Correct: sz.ConsensusCorrect, Byzantine: sz.ConsensusByz,
			Adversary: uba.AdversarySilent, Seed: seed,
		}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		bareDecision, bareStats, err := bareConsensus(seed, inputs, sz.ConsensusByz)
		if err != nil {
			t.Fatal(err)
		}
		if bareDecision != pub.Decision || bareStats != statsOf(pub.Report) {
			t.Errorf("seed %d: bare network decided %v with %+v, uba.Consensus %v with %+v",
				seed, bareDecision, bareStats, pub.Decision, statsOf(pub.Report))
		}
		for _, observe := range []bool{true, false} {
			decision, l, err := tracedConsensus(seed, inputs, sz.ConsensusByz, observe, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if decision != pub.Decision || l.Stats != statsOf(pub.Report) {
				t.Errorf("seed %d observe=%v: harness decided %v with %+v, uba.Consensus %v with %+v",
					seed, observe, decision, l.Stats, pub.Decision, statsOf(pub.Report))
			}
			if observe != (l.Events > 0) {
				t.Errorf("seed %d observe=%v: observer saw %d events", seed, observe, l.Events)
			}
			if l.Steps == 0 || l.StepNS <= 0 || l.engineNS() < 0 || l.collectNS() < 0 {
				t.Errorf("seed %d observe=%v: implausible layers %+v", seed, observe, l)
			}
		}

		oc, err := uba.NewOrderingCluster(uba.Config{Correct: sz.OrderingCorrect, Byzantine: sz.OrderingByz, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pubChain, err := orderingSession(oc, sz, seed)
		if err != nil {
			t.Fatal(err)
		}
		pubStats := statsOf(oc.Report())
		oc.Close()
		for _, observe := range []bool{true, false} {
			o, err := newTracedOrdering(seed, sz.OrderingCorrect, sz.OrderingByz, observe, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			chain, err := orderingSession(o, sz, seed)
			if err != nil {
				t.Fatal(err)
			}
			if l := o.finish(); l.Stats != pubStats || !reflect.DeepEqual(chain, pubChain) {
				t.Errorf("seed %d observe=%v: harness session %+v, %d events; OrderingCluster %+v, %d events",
					seed, observe, l.Stats, len(chain), pubStats, len(pubChain))
			}
		}
	}
}

// TestSmoke runs both runs of every workload at reduced size through
// the same code path as the benchmark, fresh children included.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		rep := measureEndToEnd(w, true, 3, 50*time.Millisecond, nil)
		if rep.Failed != 0 || rep.Samples == 0 {
			t.Fatalf("%s: %d of %d ops failed, %d samples: %s", w.name, rep.Failed, rep.Attempted, rep.Samples, rep.FirstError)
		}
		for _, d := range endToEndMetrics {
			if v := rep.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.name, d.Name, v)
			}
		}
		layer, err := measurePerLayer(w, true, 3, 50*time.Millisecond, nil, out)
		if err != nil {
			t.Fatal(err)
		}
		if layer.Failed != 0 {
			t.Fatalf("%s traced: %d of %d ops failed: %s", w.name, layer.Failed, layer.Attempted, layer.FirstError)
		}
		if len(layer.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(layer.PerLayer), len(perLayerMetrics))
		}
		// The control workload attaches no observer, so it must see no
		// trace events; every observed workload must see some.
		if events := layer.PerLayer["trace.events"].Value; (events > 0) != w.observed {
			t.Errorf("%s: trace.events = %v", w.name, events)
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: %d spans, %v", w.name, len(spans), err)
		}
	}
}

// TestFingerprintMismatchFails pins the check that an op whose
// simulated statistics differ from the recorded ones is a failed op.
func TestFingerprintMismatchFails(t *testing.T) {
	w, err := findWorkload("consensus-bare")
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(w, true, 1, nil)
	r.expect[derivedSeed(1, 0)] = simStats{Rounds: 1}
	if _, ok := r.do(0); ok || r.failed != 1 || !strings.Contains(r.firstErr.Error(), "simulated statistics") {
		t.Errorf("mismatching op passed: failed=%d err=%v", r.failed, r.firstErr)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables this package
// measures with, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != (entry{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, default --seconds %v", spec.RunSeconds, defaultSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 11, 29, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if v, pct := tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}); v != 15 || pct != 60 {
		t.Errorf("tail = %v at p%v; want 15 at p60", v, pct)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{"op_ms_p10", "ms", lower, 0.10}
	rate := metricDef{"uba.ops_per_s", "1/s", higher, 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lat, []float64{100, 101, 102}, []float64{100, 102, 103}, verdictWithin},
		{lat, []float64{100, 101, 102}, []float64{115, 116, 117}, verdictWorse},
		{lat, []float64{100, 101, 102}, []float64{80, 81, 82}, verdictBetter},
		{lat, []float64{100, 130, 160}, []float64{100, 131, 160}, verdictUnresolved},
		{lat, []float64{100, 130, 160}, []float64{50, 60, 70}, verdictBetter},
		{rate, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, verdictWorse},
		{rate, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, verdictBetter},
		{lat, nil, []float64{1}, verdictUnresolved},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFiles runs -compare on two sides made of a real reduced
// report: identical sides pass, a slower side and a side that did
// different simulated work are both refused.
func TestCompareFiles(t *testing.T) {
	w, err := findWorkload("consensus-bare")
	if err != nil {
		t.Fatal(err)
	}
	rep := measureEndToEnd(w, true, 1, 20*time.Millisecond, nil)
	write := func(name string, edit func(*workloadReport)) string {
		r := rep
		r.EndToEnd = make(map[string]metricValue)
		for k, v := range rep.EndToEnd {
			r.EndToEnd[k] = v
		}
		r.Fingerprints = make(map[string]simStats)
		for k, v := range rep.Fingerprints {
			r.Fingerprints[k] = v
		}
		edit(&r)
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(report{Workloads: []workloadReport{r}})
		if err != nil {
			t.Fatal(err)
		}
		// Three runs a side: reports are simply concatenated.
		if err := os.WriteFile(path, bytes.Repeat(data, 3), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", func(*workloadReport) {})
	var out bytes.Buffer
	if err := compareFiles(&out, base, base); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out.String())
	}
	slower := write("slow.json", func(r *workloadReport) {
		v := r.EndToEnd["op_ms_p10"]
		v.Value *= 1.5
		r.EndToEnd["op_ms_p10"] = v
	})
	out.Reset()
	if err := compareFiles(&out, base, slower); err == nil || !strings.Contains(out.String(), "consensus-bare op_ms_p10 is worse") {
		t.Errorf("slower side passed: %v\n%s", err, out.String())
	}
	other := write("other.json", func(r *workloadReport) {
		for k, st := range r.Fingerprints {
			st.Deliveries++
			r.Fingerprints[k] = st
		}
	})
	out.Reset()
	if err := compareFiles(&out, base, other); err == nil || !strings.Contains(out.String(), "fingerprint") {
		t.Errorf("side with other simulated statistics passed: %v\n%s", err, out.String())
	}
}
