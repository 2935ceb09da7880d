package census

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/ids"
)

// perBit is the reference translation: one census lookup and one mark
// per set position, the way a message-by-message reader would count.
func perBit(broadcasters []ids.ID, of *ids.Set, by Marks) (Marks, bool) {
	who := make(Marks, MarkWords(of.Len()))
	found := false
	for pos, id := range broadcasters {
		if !by.Has(pos) {
			continue
		}
		if r, ok := of.Rank(id); ok {
			who.Set(r)
			found = true
		}
	}
	return who, found
}

// Differential property test: for random rank tables the run-wise
// translation equals the per-bit reference, set for set. The trials are
// hostile to the run arithmetic: more than 128 broadcasters, so runs
// start and end mid-word on both sides; broadcasters the census does not
// know (holes in position space); members that did not broadcast (holes
// in rank space); and sets from empty through sparse to full. The merge
// splits a run at a hole and nowhere else.
func TestRanksTranslateMatchesPerBitReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			universe := ids.Sparse(rng, 130+rng.Intn(200))
			slices.Sort(universe)

			// Who is in the census.
			var cen Census
			for _, id := range universe {
				if rng.Intn(6) != 0 {
					cen.Observe(id)
				}
			}

			// Who broadcast this round: ascending, some members silent,
			// some strangers present.
			var broadcasters []ids.ID
			for _, id := range universe {
				if rng.Intn(5) != 0 {
					broadcasters = append(broadcasters, id)
				}
			}

			var table Ranks
			table.Reset(broadcasters, cen.Members())
			// A run starts at each member whose position does not follow
			// its rank's predecessor: after a stranger, or after a member
			// that stayed silent.
			starts, prev := 0, -2 // prev: the last broadcaster's rank, -2 for a stranger
			for _, id := range broadcasters {
				r, ok := cen.Members().Rank(id)
				if !ok {
					prev = -2
					continue
				}
				if r != prev+1 {
					starts++
				}
				prev = r
			}
			if len(table.runs) != starts {
				t.Fatalf("%d runs for %d run starts", len(table.runs), starts)
			}

			for trial := 0; trial < 40; trial++ {
				by := make(Marks, MarkWords(len(broadcasters)))
				density := []float64{0, 0.02, 0.5, 0.98, 1}[trial%5]
				for pos := range broadcasters {
					if rng.Float64() < density {
						by.Set(pos)
					}
				}
				want, wantAny := perBit(broadcasters, cen.Members(), by)
				got, gotAny := table.Of(by)
				if gotAny != wantAny || !slices.Equal(got, want) {
					t.Fatalf("trial %d: Of = (%x, %v), per-bit reference (%x, %v)", trial, got, gotAny, want, wantAny)
				}
			}

			// One is the same answer for a sender outside the block.
			for _, id := range universe[:20] {
				got, ok := table.One(id)
				r, wantOK := cen.Members().Rank(id)
				if ok != wantOK || (ok && (got.Count() != 1 || !got.Has(r))) {
					t.Fatalf("One(%v) = (%x, %v), want rank %d (%v)", id, got, ok, r, wantOK)
				}
			}
		})
	}
}

// When the broadcasters are the census in id order — every honest round —
// the table is a single run and a translation is the identity.
func TestRanksHonestRoundIsOneRun(t *testing.T) {
	t.Parallel()
	members := ids.Sparse(rand.New(rand.NewSource(3)), 200)
	slices.Sort(members)
	var cen Census
	for _, id := range members {
		cen.Observe(id)
	}
	frozen := cen
	var table Ranks
	table.Reset(members, frozen.Members())
	if len(table.runs) != 1 {
		t.Fatalf("%d runs, want 1", len(table.runs))
	}
	by := make(Marks, MarkWords(len(members)))
	for pos := 0; pos < len(members); pos += 3 {
		by.Set(pos)
	}
	if got, ok := table.Of(by); !ok || !slices.Equal(got, by) {
		t.Fatalf("Of = (%x, %v), want the set itself", got, ok)
	}
	// A table is rebuilt per round, and for a smaller census too.
	table.Reset(members[:3], new(Census).Members())
	if got, ok := table.Of(by[:1]); ok || got.Count() != 0 {
		t.Fatalf("empty census translated to (%x, %v)", got, ok)
	}
}

func TestMarksHasOrCleared(t *testing.T) {
	t.Parallel()
	m := Marks(nil).Cleared(130)
	if len(m) != MarkWords(130) || m.Count() != 0 {
		t.Fatalf("Cleared(130) = %x", m)
	}
	m.Set(129)
	o := make(Marks, 2)
	o.Set(0)
	o.Set(64)
	m.Or(o)
	for _, r := range []int{0, 64, 129} {
		if !m.Has(r) {
			t.Fatalf("rank %d missing from %x", r, m)
		}
	}
	if m.Has(1) || m.Has(500) || m.Count() != 3 {
		t.Fatalf("unexpected members in %x", m)
	}
	if again := m.Cleared(64); len(again) != 1 || again.Count() != 0 || &again[0] != &m[0] {
		t.Fatal("Cleared did not reuse and empty the storage")
	}
}
