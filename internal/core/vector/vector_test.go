package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// valued builds correct node i of a fleet contributing values[i].
func valued(values []float64) func(int, ids.ID) *Node {
	return func(i int, id ids.ID) *Node { return New(id, values[i]) }
}

func checkVectorAgreement(t *testing.T, nodes []*Node) []Entry {
	t.Helper()
	base := nodes[0].Vector()
	for _, node := range nodes[1:] {
		got := node.Vector()
		if len(got) != len(base) {
			t.Fatalf("node %v vector size %d vs %d", node.ID(), len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("vector slot %d: %v vs %v", i, got[i], base[i])
			}
		}
	}
	return base
}

func TestVectorFaultFree(t *testing.T) {
	t.Parallel()
	values := []float64{10, 20, 30, 40, 50}
	nodes, _ := spec.NewFleet(t, 1, len(values), 0, simnet.Config{MaxRounds: 500}, valued(values), nil).Run()
	vec := checkVectorAgreement(t, nodes)
	if len(vec) != len(values) {
		t.Fatalf("vector %v, want %d slots", vec, len(values))
	}
	for i, node := range nodes {
		found := false
		for _, e := range vec {
			if e.Node == node.ID() && e.Value == values[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %v's value %v missing: %v", node.ID(), values[i], vec)
		}
	}
}

// Validity under silent Byzantine nodes: every correct slot present, no
// phantom slots.
func TestVectorWithSilentByzantine(t *testing.T) {
	t.Parallel()
	values := []float64{1, 2, 3, 4, 5, 6, 7}
	nodes, _ := spec.NewFleet(t, 2, len(values), 2, simnet.Config{MaxRounds: 500}, valued(values), spec.Silent).Run()
	vec := checkVectorAgreement(t, nodes)
	if len(vec) != len(values) {
		t.Fatalf("vector has %d slots, want %d (silent nodes contribute none)", len(vec), len(values))
	}
}

// A Byzantine node equivocating its contribution gets at most one agreed
// slot value — identical at every correct node.
func TestVectorEquivocatedSlot(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			values := []float64{1, 2, 3, 4, 5, 6, 7}
			mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return &valueEquivocator{id: id, dir: dir, valA: 111, valB: 222}
			})
			nodes, _ := spec.NewFleet(t, seed, len(values), 2, simnet.Config{MaxRounds: 500}, valued(values), mkByz).Run()
			vec := checkVectorAgreement(t, nodes)
			for _, e := range vec {
				isCorrectSlot := false
				for _, node := range nodes {
					if e.Node == node.ID() {
						isCorrectSlot = true
					}
				}
				if !isCorrectSlot && e.Value != 111 && e.Value != 222 {
					t.Fatalf("byzantine slot decided foreign value %v", e.Value)
				}
			}
			if len(vec) < len(values) {
				t.Fatalf("correct slots missing: %v", vec)
			}
		})
	}
}

// valueEquivocator contributes value A to one half and B to the other,
// then participates in init so it is censused, and stays silent after.
type valueEquivocator struct {
	id         ids.ID
	dir        *adversary.Directory
	valA, valB float64
}

func (v *valueEquivocator) ID() ids.ID { return v.id }
func (v *valueEquivocator) Done() bool { return false }
func (v *valueEquivocator) Step(env *simnet.RoundEnv) {
	if env.Round != 1 {
		return
	}
	env.Broadcast(wire.Init{})
	halfA, halfB := v.dir.Halves()
	mk := func(x float64) wire.Payload {
		return wire.Event{Round: 0, Body: binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))}
	}
	for _, to := range halfA {
		env.Send(to, mk(v.valA))
	}
	for _, to := range halfB {
		env.Send(to, mk(v.valB))
	}
}

// NaN contributions are dropped before they can poison a slot.
func TestVectorNaNContributionIgnored(t *testing.T) {
	t.Parallel()
	values := []float64{1, 2, 3, 4}
	mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return &valueEquivocator{id: id, dir: dir, valA: math.NaN(), valB: math.NaN()}
	})
	nodes, _ := spec.NewFleet(t, 3, len(values), 1, simnet.Config{MaxRounds: 500}, valued(values), mkByz).Run()
	vec := checkVectorAgreement(t, nodes)
	for _, e := range vec {
		if math.IsNaN(e.Value) {
			t.Fatalf("NaN slot survived: %v", vec)
		}
	}
}
