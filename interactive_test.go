package uba

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestInteractiveConsistencyFaultFree(t *testing.T) {
	t.Parallel()
	inputs := []float64{10, 20, 30, 40, 50}
	res, err := InteractiveConsistency(Config{Correct: 5, Seed: 2}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vector) != 5 {
		t.Fatalf("vector has %d entries, want 5: %v", len(res.Vector), res.Vector)
	}
	values := make(map[float64]bool)
	for _, e := range res.Vector {
		values[e.Value] = true
	}
	for _, x := range inputs {
		if !values[x] {
			t.Fatalf("input %v missing from vector %v", x, res.Vector)
		}
	}
	// One EarlyConsensus instance per node, all in parallel: unanimous
	// holders decide in the first phase.
	if res.Rounds != 7 {
		t.Fatalf("vector agreed in %d rounds, want 7", res.Rounds)
	}
}

func TestInteractiveConsistencyUnderAdversaries(t *testing.T) {
	t.Parallel()
	for _, adv := range []Adversary{AdversarySilent, AdversarySplit, AdversaryNoise} {
		adv := adv
		t.Run(adv.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				inputs := []float64{1, 2, 3, 4, 5, 6, 7}
				res, err := InteractiveConsistency(Config{
					Correct: 7, Byzantine: 2, Adversary: adv, Seed: seed,
				}, inputs)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// At least the 7 correct entries; possibly byzantine
				// entries too, but agreed (checked inside).
				if len(res.Vector) < 7 {
					t.Fatalf("seed %d: vector %v too small", seed, res.Vector)
				}
			}
		})
	}
}

func TestInteractiveConsistencyInputMismatch(t *testing.T) {
	t.Parallel()
	if _, err := InteractiveConsistency(Config{Correct: 3}, []float64{1}); err == nil {
		t.Fatal("input count mismatch accepted")
	}
	// A NaN is refused before a run, not after it as a dropped value.
	if _, err := InteractiveConsistency(Config{Correct: 3}, []float64{1, math.NaN(), 2}); err == nil || !strings.Contains(err.Error(), "input 1 is NaN") {
		t.Fatalf("a NaN input: err = %v", err)
	}
}

// The vector is identical regardless of which worker steps which node —
// probed by re-running at several worker caps and comparing.
func TestInteractiveConsistencyDeterminism(t *testing.T) {
	t.Parallel()
	inputs := []float64{5, 6, 7, 8, 9, 10, 11}
	run := func(workers int) string {
		res, err := InteractiveConsistency(Config{
			Correct: 7, Byzantine: 2, Adversary: AdversarySplit,
			Seed: 9, Workers: workers,
		}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v/%d", res.Vector, res.Rounds)
	}
	base := run(1)
	for _, workers := range []int{2, 3, 5} {
		if got := run(workers); got != base {
			t.Fatalf("workers=%d disagrees with workers=1:\n%s\n%s", workers, got, base)
		}
	}
}
