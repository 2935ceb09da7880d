package approx

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

func received(from ids.ID, p wire.Payload) simnet.Received {
	return simnet.Received{From: from, Payload: p}
}

// TestGatherInputsMatchesPerSenderMap holds gatherInputs to R_v as the
// paper states it (spec.Gather: a map of the least value per sender) on
// directed inboxes — several values from one sender, a NaN before a
// number, ⊥, a foreign instance, one sender in both the block and the
// direct segment — and on random ones, built both as a healthy round's
// inbox (InboxOfRound) and as a fault round's all-direct one
// (InboxOf, in the engine's sender order).
func TestGatherInputsMatchesPerSenderMap(t *testing.T) {
	t.Parallel()
	nan := wireInput(math.NaN())
	bot := wire.Input{X: wire.Bot()}
	foreign := wire.Input{Instance: 3, X: wire.V(-50)}
	type inbox struct {
		name       string
		bcast, uni []simnet.Received
	}
	cases := []inbox{
		{"several values", []simnet.Received{
			received(5, wireInput(3)), received(5, wireInput(-2)), received(5, wireInput(7)), received(9, wireInput(1)),
		}, nil},
		{"NaN before a number", nil, []simnet.Received{
			received(5, nan), received(5, wireInput(4)), received(9, wireInput(2)),
		}},
		{"bot", []simnet.Received{
			received(5, bot), received(9, wireInput(2)), received(9, bot),
		}, nil},
		{"foreign instance", []simnet.Received{
			received(5, foreign), received(5, wireInput(6)), received(9, foreign),
		}, nil},
		{"block and direct", []simnet.Received{
			received(5, wireInput(8)), received(9, wireInput(1)),
		}, []simnet.Received{
			received(5, wireInput(-1)), received(9, wireInput(4)), received(12, wireInput(0.5)),
		}},
	}
	rng := rand.New(rand.NewSource(1))
	payloads := []wire.Payload{nan, bot, foreign, wire.Present{}}
	for i := 0; i < 200; i++ {
		c := inbox{name: "random"}
		for k := rng.Intn(12); k > 0; k-- {
			from := ids.ID(1 + rng.Intn(5))
			p := wire.Payload(wireInput(float64(rng.Intn(9) - 4)))
			if rng.Intn(4) == 0 {
				p = payloads[rng.Intn(len(payloads))]
			}
			if rng.Intn(2) == 0 {
				c.bcast = append(c.bcast, received(from, p))
			} else {
				c.uni = append(c.uni, received(from, p))
			}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		all := slices.Concat(c.bcast, c.uni)
		slices.SortStableFunc(all, func(a, b simnet.Received) int { return cmp.Compare(a.From, b.From) })
		for _, in := range []simnet.Inbox{simnet.InboxOfRound(c.bcast, c.uni), simnet.InboxOf(all...)} {
			if got, want := gatherInputs(in), spec.Gather(in); !slices.Equal(got, want) {
				t.Fatalf("%s: gatherInputs = %v, spec.Gather = %v", c.name, got, want)
			}
		}
	}
}

// Whole runs of the single-shot and the iterated node against Algorithm
// 4 as the paper states it (spec.Approx), in all three delivery shapes,
// with and without a send quota: the same sends queued round by round
// and the same estimates. The chatterers send several values each, NaN,
// ⊥ and a foreign instance's input.
func TestNodesMatchSpec(t *testing.T) {
	t.Parallel()
	t.Run("single", func(t *testing.T) {
		t.Parallel()
		spec.ForApprox.Test(t, spec.Side{
			New:     func(r spec.Role) simnet.Process { return New(r.ID, r.Input) },
			Outcome: func(p simnet.Process) any { return []float64{p.(*Node).output} },
		}, nil)
	})
	t.Run("iterated", func(t *testing.T) {
		t.Parallel()
		spec.ForApproxIterated.Test(t, spec.Side{
			New:     func(r spec.Role) simnet.Process { return NewIterated(r.ID, r.Input, spec.IteratedRounds) },
			Outcome: func(p simnet.Process) any { return p.(*Iterated).History() },
		}, nil)
	})
}
