package approx

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// gatherByMap is the per-sender-map form of gatherInputs, kept as the
// reference its run fold must match: the least value per sender, whatever
// the inbox order.
func gatherByMap(inbox simnet.Inbox) []float64 {
	perSender := make(map[ids.ID]float64, inbox.Len())
	seen := make(map[ids.ID]bool, inbox.Len())
	for m := range inbox.All() {
		in, ok := m.Payload.(wire.Input)
		if !ok || in.Instance != 0 || in.X.IsBot {
			continue
		}
		x := in.X.X
		if math.IsNaN(x) {
			continue
		}
		if !seen[m.From] || x < perSender[m.From] {
			perSender[m.From] = x
			seen[m.From] = true
		}
	}
	out := make([]float64, 0, len(perSender))
	for _, x := range perSender {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out
}

func received(from ids.ID, p wire.Payload) simnet.Received {
	return simnet.Received{From: from, Payload: p}
}

// TestGatherInputsMatchesPerSenderMap holds gatherInputs to the map
// reference on directed inboxes — several values from one sender, a NaN
// before a number, ⊥, a foreign instance, one sender in both the block
// and the direct segment — and on random ones, built both as a healthy
// round's inbox (InboxOfRound) and as a fault round's all-direct one
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
			if got, want := gatherInputs(in), gatherByMap(in); !slices.Equal(got, want) {
				t.Fatalf("%s: gatherInputs = %v, the per-sender map = %v", c.name, got, want)
			}
		}
	}
}
