package parallelcon

import (
	"testing"
	"testing/quick"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Randomized property: for arbitrary small resilient configurations under
// the fuzzing noise adversary, all correct nodes output identical pair
// sets, every commonly-held pair is decided with its value, and no pair
// is decided for an instance no one input.
func TestParallelAgreementProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, fRaw, kRaw uint8) bool {
		f := int(fRaw%2) + 1
		g := 2*f + 1
		k := int(kRaw%3) + 1
		inputs := func(i int, id ids.ID) []InputPair {
			pairs := make([]InputPair, 0, k)
			for inst := 1; inst <= k; inst++ {
				pairs = append(pairs, InputPair{
					Instance: uint64(inst),
					X:        wire.V(float64(inst)),
				})
			}
			return pairs
		}
		mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
			out := make([]simnet.Process, len(byzIDs))
			for i, id := range byzIDs {
				out[i] = adversary.NewRandomNoise(id, dir, seed+int64(i)*7)
			}
			return out
		}
		res := runParallel(t, seed, g, f, inputs, mkByz)

		base := res.nodes[0].Outputs()
		for _, node := range res.nodes[1:] {
			got := node.Outputs()
			if len(got) != len(base) {
				return false
			}
			for i := range base {
				if got[i].Instance != base[i].Instance || !got[i].X.Equal(base[i].X) {
					return false
				}
			}
		}
		// Validity: every common pair decided with its value.
		decided := make(map[uint64]wire.Value, len(base))
		for _, p := range base {
			decided[p.Instance] = p.X
		}
		for inst := 1; inst <= k; inst++ {
			v, ok := decided[uint64(inst)]
			if !ok || !v.Equal(wire.V(float64(inst))) {
				return false
			}
		}
		// No foreign instances beyond what the noise adversary could
		// have seeded through a joinable window — those are allowed to
		// decide, but only with an agreed value (already checked); what
		// is NOT allowed is an undecided correct pair, checked above.
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The same property under the split-voter coalition.
func TestParallelAgreementUnderSplitProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, fRaw uint8) bool {
		f := int(fRaw%2) + 1
		g := 2*f + 1
		inputs := func(i int, id ids.ID) []InputPair {
			return []InputPair{{Instance: 4, X: wire.V(float64(i % 2))}}
		}
		mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
			out := make([]simnet.Process, len(byzIDs))
			for i, id := range byzIDs {
				out[i] = adversary.NewSplitVoter(id, dir, wire.V(0), wire.V(1))
			}
			return out
		}
		res := runParallel(t, seed, g, f, inputs, mkByz)
		base := res.nodes[0].Outputs()
		for _, node := range res.nodes[1:] {
			got := node.Outputs()
			if len(got) != len(base) {
				return false
			}
			for i := range base {
				if got[i].Instance != base[i].Instance || !got[i].X.Equal(base[i].X) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The instance table stays ordered however instances arrive: after random
// New inputs (duplicates included — the last one wins), AddInput calls and
// first-contact joins through the input window, order is strictly
// ascending by id and holds exactly the map's instances with the expected
// opinions, and Outputs comes out ascending from it.
func TestInstanceTableStaysOrderedProperty(t *testing.T) {
	t.Parallel()
	prop := func(given, added, heard []uint8) bool {
		want := make(map[uint64]wire.Value)
		inputs := make([]InputPair, 0, len(given))
		for i, raw := range given {
			pair := InputPair{Instance: uint64(raw % 16), X: wire.V(float64(i))}
			inputs = append(inputs, pair)
			want[pair.Instance] = pair.X
		}
		n := memberNode(1, []ids.ID{1, 2, 3, 4}, inputs)
		for i, raw := range added {
			pair := InputPair{Instance: uint64(raw % 24), X: wire.V(float64(100 + i))}
			n.AddInput(pair)
			want[pair.Instance] = pair.X
		}
		msgs := make([]simnet.Received, 0, len(heard))
		for _, raw := range heard {
			iid := uint64(raw % 32)
			msgs = append(msgs, rcvP(2, wire.Input{Instance: iid, X: wire.V(7)}))
			if _, known := want[iid]; !known {
				want[iid] = wire.Bot()
			}
		}
		stepLocal(n, 1, simnet.Inbox{})
		stepLocal(n, 2, simnet.InboxOf(msgs...))

		if len(n.order) != len(want) || len(n.inst) != len(want) {
			return false
		}
		for i, ins := range n.order {
			if i > 0 && n.order[i-1].id >= ins.id {
				return false
			}
			if x, ok := want[ins.id]; !ok || !ins.x.Equal(x) || n.inst[ins.id] != ins {
				return false
			}
			ins.decided, ins.hasOut, ins.output = true, true, wire.V(float64(ins.id))
		}
		out := n.Outputs()
		if len(out) != len(n.order) {
			return false
		}
		for i, pair := range out {
			if pair.Instance != n.order[i].id || !pair.X.Equal(wire.V(float64(pair.Instance))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
