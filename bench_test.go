package uba_test

import (
	"fmt"
	"math/rand"
	"testing"

	"uba"
	"uba/internal/exp"
	"uba/internal/ids"
	"uba/internal/wire"
)

// --- experiment benches: one per table/figure of DESIGN.md §4. Each
// iteration re-runs the experiment in quick mode (reduced sweeps), so
// ns/op reflects the cost of regenerating that table.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func(bool) (*exp.Outcome, error)
	for _, e := range exp.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outcome, err := run(true)
		if err != nil {
			b.Fatal(err)
		}
		if !outcome.Pass {
			b.Fatalf("%s failed its claim check", id)
		}
	}
}

func BenchmarkE1ReliableBroadcast(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2RBVsBaseline(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3ResiliencyBoundary(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4RotorRounds(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE5RotorVsBaseline(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6ConsensusRounds(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7ConsensusAdversaries(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8ConsensusVsKing(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9ApproxConvergence(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10ApproxVsBaseline(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11ParallelConsensus(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12TotalOrdering(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13AsyncImpossibility(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14SemiSyncImpossibility(b *testing.B) {
	benchExperiment(b, "E14")
}
func BenchmarkE15Renaming(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16TRB(b *testing.B)               { benchExperiment(b, "E16") }
func BenchmarkE17ThresholdAblation(b *testing.B) { benchExperiment(b, "E17") }
func BenchmarkE18DynamicApprox(b *testing.B)     { benchExperiment(b, "E18") }

// --- protocol benches: a single protocol run per iteration, across
// system sizes, to see simulator throughput scaling.

func BenchmarkConsensusRun(b *testing.B) {
	for _, f := range []int{1, 3, 8} {
		f := f
		g := 2*f + 1
		b.Run(fmt.Sprintf("n=%d", g+f), func(b *testing.B) {
			inputs := make([]float64, g)
			for i := range inputs {
				inputs[i] = float64(i % 2)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := uba.Consensus(uba.Config{
					Correct: g, Byzantine: f,
					Adversary: uba.AdversarySplit, Seed: int64(i),
				}, inputs)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

func BenchmarkRotorRun(b *testing.B) {
	for _, n := range []int{4, 13, 40} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := (n - 1) / 3
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := uba.Rotor(uba.Config{
					Correct: n - f, Byzantine: f,
					Adversary: uba.AdversaryGhost, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkApproxRun(b *testing.B) {
	for _, n := range []int{7, 31} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := (n - 1) / 3
			g := n - f
			inputs := make([]float64, g)
			for i := range inputs {
				inputs[i] = float64(i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := uba.ApproximateAgreement(uba.Config{
					Correct: g, Byzantine: f,
					Adversary: uba.AdversarySplit, Seed: int64(i),
				}, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOrderingRound(b *testing.B) {
	oc, err := uba.NewOrderingCluster(uba.Config{Correct: 6, Byzantine: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	members := oc.Members()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := oc.SubmitEvent(members[i%len(members)], float64(i)); err != nil {
			b.Fatal(err)
		}
		if err := oc.RunRounds(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro benches on the substrates.

func BenchmarkWireEncodeDecode(b *testing.B) {
	payloads := []wire.Payload{
		wire.Present{},
		wire.Input{Instance: 7, X: wire.V(3.25)},
		wire.RBEcho{Source: 42, Body: []byte("payload-bytes")},
		wire.IDEcho{Instance: 1, Candidate: 99},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := payloads[i%len(payloads)]
		enc := wire.Encode(p)
		if _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIDSetInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pool := ids.Sparse(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	s := ids.NewSet()
	for i := 0; i < b.N; i++ {
		s.Add(pool[i%len(pool)])
		if i%len(pool) == len(pool)-1 {
			s = ids.NewSet()
		}
	}
}

// --- ablation benches: design choices called out in DESIGN.md.

// Worker-cap ablation on identical workloads: every cap is observably
// the same execution (asserted by tests); this measures what the
// dispatch costs or buys at different scales. The counts are explicit
// so a one-core host still pays for real dispatch at cap > 1.
func BenchmarkRunnerAblation(b *testing.B) {
	for _, n := range []int{8, 32, 96} {
		for _, workers := range []int{1, 2, 3, 5} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				f := (n - 1) / 3
				g := n - f
				inputs := make([]float64, g)
				for i := range inputs {
					inputs[i] = float64(i % 2)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := uba.Consensus(uba.Config{
						Correct: g, Byzantine: f,
						Adversary: uba.AdversarySplit,
						Seed:      7,
						Workers:   workers,
					}, inputs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Early termination ablation: unanimous-input consensus cost (the
// early-exit path, constant rounds) vs split-input cost (the full
// coordinator path) at the same system size.
func BenchmarkEarlyTerminationAblation(b *testing.B) {
	const g, f = 9, 4
	unanimous := make([]float64, g)
	split := make([]float64, g)
	for i := range split {
		unanimous[i] = 1
		split[i] = float64(i % 2)
	}
	b.Run("unanimous", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := uba.Consensus(uba.Config{
				Correct: g, Byzantine: f, Adversary: uba.AdversarySplit, Seed: 3,
			}, unanimous); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := uba.Consensus(uba.Config{
				Correct: g, Byzantine: f, Adversary: uba.AdversarySplit, Seed: 3,
			}, split); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Interactive-consistency bench: the "compiled" derived primitive.
func BenchmarkInteractiveConsistency(b *testing.B) {
	inputs := []float64{1, 2, 3, 4, 5, 6, 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := uba.InteractiveConsistency(uba.Config{
			Correct: 7, Byzantine: 2, Seed: int64(i),
		}, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE19MarkerAblation(b *testing.B) { benchExperiment(b, "E19") }

func BenchmarkE20MessageComplexity(b *testing.B) { benchExperiment(b, "E20") }

func BenchmarkE21RotorBoundary(b *testing.B) { benchExperiment(b, "E21") }
