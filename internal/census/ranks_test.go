package census

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/ids"
)

// countingCensus counts Rank calls, to pin the table's one lookup per
// broadcaster.
type countingCensus struct {
	*Census
	lookups int
}

func (c *countingCensus) Rank(id ids.ID) (int, bool) {
	c.lookups++
	return c.Census.Rank(id)
}

// perBit is the reference translation: one census lookup and one mark
// per set position, the way a message-by-message reader would count.
func perBit(broadcasters []ids.ID, of Ranker, by Marks) (Marks, bool) {
	who := make(Marks, MarkWords(of.N()))
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
// start and end mid-word on both sides; censuses observed in id order
// (one long run), in id order with a rotation (two runs at a word-
// straddling offset), in blocks, and in arbitrary first-observed order
// (every position its own run); broadcasters the census does not know
// (holes in position space); members that did not broadcast (holes in
// rank space); and sets from empty through sparse to full. For the
// id-order censuses the merge-built table (ResetAscending over FrozenOf)
// must be the lookup-built one.
func TestRanksTranslateMatchesPerBitReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			universe := ids.Sparse(rng, 130+rng.Intn(200))
			slices.Sort(universe)

			// Who is in the census, and in what order it met them.
			var members []ids.ID
			for _, id := range universe {
				if rng.Intn(6) != 0 {
					members = append(members, id)
				}
			}
			switch seed % 4 {
			case 1: // rotated id order
				k := 1 + rng.Intn(len(members)-1)
				members = append(members[k:len(members):len(members)], members[:k]...)
			case 2: // shuffled blocks of id order
				var blocks [][]ids.ID
				for len(members) > 0 {
					k := min(len(members), 1+rng.Intn(90))
					blocks, members = append(blocks, members[:k]), members[k:]
				}
				rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
				members = slices.Concat(blocks...)
			case 3: // arbitrary first-observed order
				rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			}
			cen := &countingCensus{Census: New()}
			for _, id := range members {
				cen.Observe(id)
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
			table.Reset(broadcasters, cen)
			if cen.lookups != len(broadcasters) {
				t.Fatalf("Reset made %d census lookups for %d broadcasters", cen.lookups, len(broadcasters))
			}
			if seed%4 == 0 {
				// Id-order census: a run breaks only at a stranger or
				// after a silent member, never otherwise.
				breaks := 1
				for i := 1; i < len(broadcasters); i++ {
					r0, ok0 := cen.Rank(broadcasters[i-1])
					r1, ok1 := cen.Rank(broadcasters[i])
					if ok1 && (!ok0 || r1 != r0+1) {
						breaks++
					}
				}
				if len(table.runs) > breaks {
					t.Fatalf("%d runs for %d breaks in an id-order census", len(table.runs), breaks)
				}

				// The same census built from the known membership ranks
				// everyone the same, and the merge of the two ascending
				// lists builds the table the lookups built.
				set := ids.NewSet(members...)
				known := FrozenOf(set)
				for _, id := range universe {
					r0, ok0 := cen.Rank(id)
					if r1, ok1 := known.Rank(id); ok0 != ok1 || r0 != r1 {
						t.Fatalf("FrozenOf ranks %v at %d (%v), observing in id order at %d (%v)", id, r1, ok1, r0, ok0)
					}
				}
				var merged Ranks
				merged.ResetAscending(broadcasters, known, set)
				if !slices.Equal(merged.runs, table.runs) || len(merged.who) != len(table.who) {
					t.Fatalf("ResetAscending built runs %v, Reset %v", merged.runs, table.runs)
				}
			}

			for trial := 0; trial < 40; trial++ {
				by := make(Marks, MarkWords(len(broadcasters)))
				density := []float64{0, 0.02, 0.5, 0.98, 1}[trial%5]
				for pos := range broadcasters {
					if rng.Float64() < density {
						by.Set(pos)
					}
				}
				want, wantAny := perBit(broadcasters, cen, by)
				got, gotAny := table.Of(by)
				if gotAny != wantAny || !slices.Equal(got, want) {
					t.Fatalf("trial %d: Of = (%x, %v), per-bit reference (%x, %v)", trial, got, gotAny, want, wantAny)
				}
			}

			// One is the same answer for a sender outside the block.
			for _, id := range universe[:20] {
				got, ok := table.One(id)
				r, wantOK := cen.Rank(id)
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
	cen := New()
	for _, id := range members {
		cen.Observe(id)
	}
	var table Ranks
	table.Reset(members, cen.Freeze())
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
	table.Reset(members[:3], New())
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
