package census

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/allocgate"
)

// pairKey is a composite key like reliable broadcast's (source, body).
type pairKey struct {
	source uint64
	body   string
}

func byPair(a, b pairKey) int {
	if c := cmp.Compare(a.source, b.source); c != 0 {
		return c
	}
	return cmp.Compare(a.body, b.body)
}

// folded is one echo call of a Fold.
type folded struct {
	key    pairKey
	quorum bool
}

// refWindow counts the obvious way: a set of ranks per key, rebuilt every
// window.
type refWindow map[pairKey]map[int]struct{}

func (w refWindow) add(key pairKey, who Marks) {
	if w[key] == nil {
		w[key] = make(map[int]struct{})
	}
	for r := 0; r < len(who)*64; r++ {
		if who.Has(r) {
			w[key][r] = struct{}{}
		}
	}
}

// fold applies the echo rule, with the test's extra rule that accepting
// (source, body) also accepts (source+1, body) — a pair that sorts later
// in the same fold.
func (w refWindow) fold(nv int, accepted map[pairKey]bool) []folded {
	keys := make([]pairKey, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, byPair)
	var out []folded
	for _, k := range keys {
		if accepted[k] {
			continue
		}
		count := len(w[k])
		if AtLeastThird(count, nv) {
			out = append(out, folded{k, AtLeastTwoThirds(count, nv)})
		}
		if AtLeastTwoThirds(count, nv) {
			accepted[k] = true
			accepted[pairKey{k.source + 1, k.body}] = true
		}
	}
	clear(w)
	return out
}

// Differential property test: over seeded random windows the slab and the
// map-of-sets reference echo the same keys, in the same order, with the
// same quorum verdicts. Each window draws its sets at one width, and the
// width changes from window to window (the slab takes each window's
// stride from its first Add), keys and ranks repeat within and across
// the adds of a window, a key accepted in one window is skipped in
// the next — and one accepted mid-fold by an earlier echo is too — and
// windows run back to back so a fold that leaked a row, a mark, a stride
// or its row guess would show in the next one.
func TestWindowMatchesMapReference(t *testing.T) {
	t.Parallel()
	echoes, quorums := 0, 0
	defer func() {
		if quorums == 0 || echoes < 2*quorums {
			t.Errorf("degenerate trials: %d echoes, %d with quorum", echoes, quorums)
		}
	}()
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := make([]pairKey, 3+rng.Intn(20))
			for i := range pool {
				pool[i] = pairKey{uint64(rng.Intn(6)), string(rune('a' + rng.Intn(4)))}
			}
			var w Window[pairKey]
			ref := refWindow{}
			gotAccepted, wantAccepted := map[pairKey]bool{}, map[pairKey]bool{}
			for window := 0; window < 16; window++ {
				ranks := 1 + rng.Intn(200)
				for adds := rng.Intn(120); adds > 0; adds-- {
					// Sets at the one width of the window's census,
					// sparsely filled up to a random rank.
					n := 1 + rng.Intn(ranks)
					who := make(Marks, MarkWords(ranks))
					for k := 1 + rng.Intn(n/4+1); k > 0; k-- {
						who.Set(rng.Intn(n))
					}
					key := pool[rng.Intn(len(pool))]
					w.Add(key, who)
					ref.add(key, who)
				}
				nv := 1 + rng.Intn(2*ranks)
				var got []folded
				w.Fold(nv, byPair, func(k pairKey) bool { return gotAccepted[k] }, func(k pairKey, quorum bool) {
					got = append(got, folded{k, quorum})
					if quorum {
						gotAccepted[k] = true
						gotAccepted[pairKey{k.source + 1, k.body}] = true
					}
				})
				want := ref.fold(nv, wantAccepted)
				if !slices.Equal(got, want) {
					t.Fatalf("window %d (nv=%d): echoed %v, reference %v", window, nv, got, want)
				}
				echoes += len(got)
				for _, e := range got {
					if e.quorum {
						quorums++
					}
				}
			}
		})
	}
}

// The rule itself on a hand-built window: below n_v/3 nothing, from
// n_v/3 an echo, from 2n_v/3 an echo with quorum; ascending key order
// whatever the arrival order; an accepted key is skipped; a nil accepted
// skips nothing; the fold leaves the window empty.
func TestWindowFoldAppliesTheEchoRule(t *testing.T) {
	t.Parallel()
	set := func(ranks ...int) Marks {
		m := make(Marks, 1)
		for _, r := range ranks {
			m.Set(r)
		}
		return m
	}
	var w Window[uint64]
	fill := func() {
		w.Add(40, set(0, 1, 2, 3, 4, 5)) // 6 of 9: quorum
		w.Add(10, set(0, 1))             // 2 of 9: below n_v/3
		w.Add(30, set(0, 1, 2))          // 3 of 9: echo
		w.Add(20, set(0, 1, 2, 3, 4))    // 5 of 9: echo, no quorum
		w.Add(30, set(2, 1))             // repeats count once
		w.Add(50, set(0, 1, 2, 3, 4, 5, 6))
	}
	type echo struct {
		key    uint64
		quorum bool
	}
	var got []echo
	collect := func(k uint64, quorum bool) { got = append(got, echo{k, quorum}) }

	fill()
	w.Fold(9, cmp.Compare[uint64], func(k uint64) bool { return k == 50 }, collect)
	if want := []echo{{20, false}, {30, false}, {40, true}}; !slices.Equal(got, want) {
		t.Fatalf("echoed %v, want %v", got, want)
	}
	got = nil
	w.Fold(9, cmp.Compare[uint64], nil, collect)
	if got != nil {
		t.Fatalf("second fold of the same window echoed %v", got)
	}
	fill()
	w.Fold(9, cmp.Compare[uint64], nil, collect)
	if want := []echo{{20, false}, {30, false}, {40, true}, {50, true}}; !slices.Equal(got, want) {
		t.Fatalf("with no accepted set: echoed %v, want %v", got, want)
	}
}

// threeInboxes is a window's worth of adds in which each key is named in
// three inboxes with different key orders, so Add's next-row guess misses
// and keys get several rows. Each key's sets overlap: counted once per
// distinct sender, 10 has 5 of 9 (echo), 20 has 3 (echo), 30 has 6
// (quorum) and 40 has 2 (nothing); counted once per row, 10 and 20 would
// reach a quorum and 40 an echo.
type threeInboxes [][]struct {
	key uint64
	who Marks
}

func newThreeInboxes() threeInboxes {
	set := func(ranks ...int) Marks {
		m := make(Marks, 1)
		for _, r := range ranks {
			m.Set(r)
		}
		return m
	}
	return threeInboxes{
		{{10, set(0, 1, 2)}, {20, set(0, 1)}, {30, set(0, 1, 2, 3)}, {40, set(7)}},
		{{40, set(7)}, {30, set(2, 3, 4, 5)}, {20, set(1, 2)}, {10, set(1, 2, 3)}},
		{{20, set(0, 2)}, {40, set(8)}, {10, set(2, 3, 4)}, {30, set(4, 5)}},
	}
}

func (in threeInboxes) fill(w *Window[uint64]) {
	for _, inbox := range in {
		for _, a := range inbox {
			w.Add(a.key, a.who)
		}
	}
}

// A key named in inboxes whose key orders differ holds several rows; the
// fold merges them into one count of distinct senders and echoes the key
// once, in key order — or not at all when accepted holds it, whether from
// the fold's start or from an earlier key's echo in the same fold.
func TestWindowMergesRowsOfARepeatedKey(t *testing.T) {
	t.Parallel()
	in := newThreeInboxes()
	var w Window[uint64]
	type echo struct {
		key    uint64
		quorum bool
	}
	var got []echo
	fold := func(accepted map[uint64]bool, acceptsToo map[uint64]uint64) {
		got = nil
		in.fill(&w)
		if len(w.rows) <= 4 {
			t.Fatalf("three inboxes in three key orders filled %d rows; want repeated keys on more than 4", len(w.rows))
		}
		w.Fold(9, cmp.Compare[uint64], func(k uint64) bool { return accepted[k] }, func(k uint64, quorum bool) {
			got = append(got, echo{k, quorum})
			if other, ok := acceptsToo[k]; ok {
				accepted[other] = true
			}
		})
	}

	fold(map[uint64]bool{}, nil)
	if want := []echo{{10, false}, {20, false}, {30, true}}; !slices.Equal(got, want) {
		t.Fatalf("echoed %v, want %v", got, want)
	}
	fold(map[uint64]bool{20: true}, nil)
	if want := []echo{{10, false}, {30, true}}; !slices.Equal(got, want) {
		t.Fatalf("with 20 accepted at the start: echoed %v, want %v", got, want)
	}
	fold(map[uint64]bool{}, map[uint64]uint64{10: 30})
	if want := []echo{{10, false}, {20, false}}; !slices.Equal(got, want) {
		t.Fatalf("with 30 accepted by 10's echo: echoed %v, want %v", got, want)
	}
}

// A warm window refilled in the same shape — repeated keys on several
// rows, one key accepted — allocates nothing per Add…Fold cycle: rows and
// slab are reused within their capacity, and the fold sorts and merges in
// place.
func TestWindowRefillAllocatesNothing(t *testing.T) {
	in := newThreeInboxes()
	var w Window[uint64]
	echoes := 0
	accepted := func(k uint64) bool { return k == 30 }
	echo := func(uint64, bool) { echoes++ }
	cycle := func() {
		in.fill(&w)
		w.Fold(9, cmp.Compare[uint64], accepted, echo)
	}
	cycle() // the warm-up window
	if got := allocgate.Count(100, cycle); got != 0 {
		t.Errorf("a refilled window allocated %d times over 100 Add…Fold cycles, want 0", got)
	}
	// Ours, Count's own warm-up, then its 100 measured cycles.
	if cycles := 1 + 1 + 100; echoes != 2*cycles {
		t.Errorf("%d echoes over %d cycles, want 2 per cycle (keys 10 and 20)", echoes, cycles)
	}
}
