package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row, side b against side a.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within"
	verdictUnresolved = "unresolved"
)

// side is the reports of one side of a comparison: one file holding
// one or more full reports, concatenated.
type side []report

func readSide(path string) (side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s side
	dec := json.NewDecoder(f)
	for {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, r)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no report", path)
	}
	return s, nil
}

// values returns the side's runs of one end-to-end metric on one
// workload; a run that left the workload unresolved contributes none.
func (s side) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s {
		for _, w := range r.Workloads {
			if v, ok := w.EndToEnd[metric]; ok && w.Name == workload {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// failedShare is failed ops over attempted ops, over all runs.
func (s side) failedShare(workload string) float64 {
	var attempted, failed int
	for _, r := range s {
		for _, w := range r.Workloads {
			if w.Name == workload {
				attempted += w.Attempted
				failed += w.Failed
			}
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// fingerprints merges the side's simulated statistics per workload and
// derived seed, failing if two of its own runs disagree.
func (s side) fingerprints() (map[string]simStats, error) {
	out := make(map[string]simStats)
	for _, r := range s {
		for _, w := range r.Workloads {
			for seed, st := range w.Fingerprints {
				key := w.Name + "/" + seed
				if have, ok := out[key]; ok && have != st {
					return nil, fmt.Errorf("%s: %+v and %+v within one side", key, have, st)
				}
				out[key] = st
			}
		}
	}
	return out, nil
}

// verdict judges b against a on one metric. Spread is each side's
// interquartile range over its median; a metric whose spread exceeds
// its bound is unresolved unless every run of b beats every run of a.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // oriented so that larger is worse
	if d.Better == higher {
		sign = -1
	}
	ma, mb := median(a), median(b)
	change := sign * (mb - ma) / ma // share of a's median by which b is worse
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	if max(spread(a), spread(b)) > d.Bound {
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case change > d.Bound:
		return verdictWorse
	case allBetter && -change > spread(a):
		return verdictBetter
	default:
		return verdictWithin
	}
}

func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns an error, so the command exits non-zero, when any row is
// worse, when b failed a larger share of its ops, or when the two
// sides' simulated statistics differ.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readSide(pathA)
	if err != nil {
		return err
	}
	b, err := readSide(pathB)
	if err != nil {
		return err
	}
	fa, err := a.fingerprints()
	if err != nil {
		return err
	}
	fb, err := b.fingerprints()
	if err != nil {
		return err
	}
	var problems []string
	keys := make([]string, 0, len(fa))
	for k := range fa {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if st, ok := fb[k]; ok && st != fa[k] {
			problems = append(problems, fmt.Sprintf("fingerprint %s: %+v vs %+v", k, fa[k], st))
		}
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1 q3] n\tb median [q1 q3] n\tchange\tbound\tverdict")
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			va, vb := a.values(w.name, d.Name), b.values(w.name, d.Name)
			v := verdict(d, va, vb)
			change := 0.0
			if len(va) > 0 && len(vb) > 0 {
				change = 100 * (median(vb) - median(va)) / median(va)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, d.Name, d.Unit, summary(va), summary(vb), change, 100*d.Bound, v)
			if v == verdictWorse {
				problems = append(problems, fmt.Sprintf("%s %s is worse", w.name, d.Name))
			}
		}
		if sa, sb := a.failedShare(w.name), b.failedShare(w.name); sb > sa {
			problems = append(problems, fmt.Sprintf("%s failed %.2f%% of its ops, up from %.2f%%", w.name, 100*sb, 100*sa))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(out, "FAIL:", p)
		}
		return fmt.Errorf("%d problems", len(problems))
	}
	return nil
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), q1, q3, len(xs))
}
