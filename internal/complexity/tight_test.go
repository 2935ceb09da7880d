package complexity_test

import (
	"fmt"
	"math"
	"testing"

	"uba/internal/complexity"
	"uba/internal/core/approx"
	"uba/internal/core/consensus"
	"uba/internal/core/ordering"
	"uba/internal/core/parallelcon"
	"uba/internal/core/relbcast"
	"uba/internal/core/renaming"
	"uba/internal/core/rotor"
	"uba/internal/core/trb"
	"uba/internal/core/vector"
	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/stats"
	"uba/internal/trace"
	"uba/internal/wire"
)

// peak is a recording StatsOracle: the largest per-round broadcast and
// unicast counts of any correct node over a run.
type peak struct{ broadcasts, unicasts int }

func (p *peak) Name() string                                 { return "peak" }
func (p *peak) Observe(int, []trace.Event) *oracle.Violation { return nil }
func (p *peak) ObserveStats(_ int, acct simnet.RoundAccounting) *oracle.Violation {
	p.broadcasts = max(p.broadcasts, acct.CorrectMaxBroadcasts)
	p.unicasts = max(p.unicasts, acct.CorrectMaxUnicasts)
	return nil
}

// fleet is a seeded fleet of n nodes for one tightness run: n − ⌊(n−1)/3⌋
// correct nodes that mk builds and ⌊(n−1)/3⌋ silent Byzantine ones, on a
// network whose observer records the correct nodes' peak sends into p.
func fleet[N simnet.Process](t *testing.T, n int, p *peak, mk func(i int, id ids.ID) N) *spec.Fleet[N] {
	f := (n - 1) / 3
	cfg := simnet.Config{MaxRounds: 2000, Observer: oracle.NewSuite(p)}
	return spec.NewFleet(t, int64(n), n-f, f, cfg, mk, spec.Silent)
}

// tightRow is one family's tightness run: the system sizes it runs at,
// and run, which runs the family at size n and returns its correct
// nodes' peak per-round sends.
type tightRow struct {
	sizes []int
	run   func(t *testing.T, n int) peak
}

var defaultSizes = []int{4, 16, 64}

// tightRows is one run per Registry entry. Each is a run whose sends
// grow like the family's worst case: relbcast with every node a source
// (with one source a node echoes O(1) pairs per round), and ordering
// with every member submitting every round while n/4 nodes join at once
// (each member acks each joiner).
var tightRows = map[string]tightRow{
	"approx": {defaultSizes, func(t *testing.T, n int) (p peak) {
		fleet(t, n, &p, func(i int, id ids.ID) *approx.Node { return approx.New(id, float64(i)) }).Run()
		return p
	}},
	"consensus": {defaultSizes, func(t *testing.T, n int) (p peak) {
		fleet(t, n, &p, func(i int, id ids.ID) *consensus.Node { return consensus.New(id, wire.V(float64(i%2))) }).Run()
		return p
	}},
	"ordering": {[]int{4, 8, 16}, func(t *testing.T, n int) (p peak) {
		members := ids.NewSet(spec.IDs(int64(n), n)...)
		fl := fleet(t, n, &p, func(_ int, id ids.ID) *ordering.Node {
			node, err := ordering.NewFounder(id, members)
			if err != nil {
				t.Fatal(err)
			}
			return node
		})
		nodes := fl.RunFor(0)
		submit := func(rounds int) {
			for r := range rounds {
				for i, node := range nodes {
					node.SubmitEvent(float64(r*len(nodes) + i))
				}
				fl.RunFor(1)
			}
		}
		submit(2)
		for k := range max(1, n/4) {
			joiner, err := ordering.NewJoiner(ids.ID(1<<40 + k))
			if err != nil {
				t.Fatal(err)
			}
			fl.Add(joiner)
		}
		submit(5*n/2 + 8)
		return p
	}},
	"parallelcon": {defaultSizes, func(t *testing.T, n int) (p peak) {
		fleet(t, n, &p, func(i int, id ids.ID) *parallelcon.Node {
			pairs := []parallelcon.InputPair{{Instance: 1, X: wire.V(float64(i % 2))}, {Instance: 2, X: wire.V(1)}}
			return parallelcon.New(id, pairs, parallelcon.Options{})
		}).Run()
		return p
	}},
	"relbcast": {defaultSizes, func(t *testing.T, n int) (p peak) {
		fleet(t, n, &p, func(i int, id ids.ID) *relbcast.Node { return relbcast.NewSource(id, []byte{byte(i)}) }).RunFor(4)
		return p
	}},
	"renaming": {defaultSizes, func(t *testing.T, n int) (p peak) {
		fleet(t, n, &p, func(_ int, id ids.ID) *renaming.Node { return renaming.New(id) }).Run()
		return p
	}},
	"rotor": {defaultSizes, func(t *testing.T, n int) (p peak) {
		fleet(t, n, &p, func(i int, id ids.ID) *rotor.Node { return rotor.New(id, wire.V(float64(i))) }).Run()
		return p
	}},
	"trb": {defaultSizes, func(t *testing.T, n int) (p peak) {
		source := spec.IDs(int64(n), n)[0]
		fleet(t, n, &p, func(i int, id ids.ID) *trb.Node {
			if i == 0 {
				return trb.NewSource(id, []byte("m"))
			}
			return trb.New(id, source)
		}).Run()
		return p
	}},
	"vector": {defaultSizes, func(t *testing.T, n int) (p peak) {
		fleet(t, n, &p, func(i int, id ids.ID) *vector.Node { return vector.New(id, float64(i)) }).Run()
		return p
	}},
}

// classify is the class of a per-node send count observed as ys at the
// system sizes xs: None when every count is zero, otherwise by the
// slope of log ys against log xs (under 0.5 Const, under 1.5 Linear,
// else Quadratic).
func classify(xs, ys []int) (complexity.Class, error) {
	var lx, ly []float64
	zero := 0
	for i := range xs {
		if ys[i] == 0 {
			zero++
			continue
		}
		lx, ly = append(lx, math.Log(float64(xs[i]))), append(ly, math.Log(float64(ys[i])))
	}
	switch zero {
	case len(xs):
		return complexity.None, nil
	case 0:
	default:
		return 0, fmt.Errorf("counts %v are zero at some sizes only", ys)
	}
	fit, err := stats.LinearFit(lx, ly)
	switch {
	case err != nil:
		return 0, err
	case fit.Slope < 0.5:
		return complexity.Const, nil
	case fit.Slope < 1.5:
		return complexity.Linear, nil
	}
	return complexity.Quadratic, nil
}

// TestRegistryIsTight runs every family of complexity.Registry at
// several sizes and holds each entry to what the runs show: a class
// below the observed growth understates the protocol's cost, one above
// it loosens the runtime complexity oracle, which reads the same entry;
// and at every size the observed peak must lie within the entry's
// budget at the oracle's slack.
func TestRegistryIsTight(t *testing.T) {
	t.Parallel()
	registered := map[string]bool{}
	for _, e := range complexity.Registry() {
		registered[e.Family] = true
		row, ok := tightRows[e.Family]
		if !ok {
			t.Errorf("registry entry %s has no tightness run", e.Family)
			continue
		}
		t.Run(e.Family, func(t *testing.T) {
			t.Parallel()
			var bs, us []int
			for _, n := range row.sizes {
				p := row.run(t, n)
				bs, us = append(bs, p.broadcasts), append(us, p.unicasts)
			}
			for _, c := range []struct {
				kind     string
				entry    complexity.Class
				observed []int
			}{
				{"broadcasts", e.Contract.Broadcasts, bs},
				{"unicasts", e.Contract.Unicasts, us},
			} {
				got, err := classify(row.sizes, c.observed)
				if err != nil {
					t.Errorf("%s: %v", c.kind, err)
				} else if got != c.entry {
					t.Errorf("%s: registered %s, observed %s (peaks %v at n = %v)", c.kind, c.entry, got, c.observed, row.sizes)
				}
				for i, n := range row.sizes {
					if bound := c.entry.Bound(n, oracle.DefaultComplexitySlack); c.observed[i] > bound {
						t.Errorf("%s: peak %d at n = %d exceeds %s's budget %d", c.kind, c.observed[i], n, c.entry, bound)
					}
				}
			}
		})
	}
	for family := range tightRows {
		if !registered[family] {
			t.Errorf("tightness run %s has no registry entry", family)
		}
	}
}
