package rotor

import (
	"cmp"
	"slices"

	"uba/internal/census"
	"uba/internal/ids"
)

// echoWindow tallies the candidate echoes of one rotor window: for each
// candidate, which distinct censused senders echoed it since the last
// LoopRound. Every node echoes every candidate, so a window reads n²
// echoes; they arrive as n sets of senders (one per distinct echo of the
// round's broadcast block, already in census ranks) and are ORed into one
// slab — a row of stride words per candidate, each a census.Marks over
// the senders' ranks — that is truncated and reused at the next window
// instead of rebuilt.
type echoWindow struct {
	rows   []echoRow      // one per candidate echoed this window
	index  map[ids.ID]int // candidate -> position in rows
	stride int            // words per row
	marks  []uint64       // len(rows)*stride words
}

// echoRow names the candidate of marks[at*stride : (at+1)*stride]. Until
// sorted puts the rows in candidate order, at is the row's own position.
type echoRow struct {
	cand ids.ID
	at   int
}

// add records that the senders of census ranks who echoed cand, and
// returns the position after cand's row. The caller passes that back as
// guess for the next echo: every inbox of a window, and every sender of
// a private segment, brings the same candidates in the same (encoding)
// order, so the row after the last one — wrapping to the first — is
// nearly always the right one and the index lookup is skipped.
func (w *echoWindow) add(cand ids.ID, who census.Marks, guess int) int {
	at := guess
	if at >= len(w.rows) {
		at = 0
	}
	if at >= len(w.rows) || w.rows[at].cand != cand {
		at = w.row(cand)
	}
	if len(who) > w.stride {
		w.widen(len(who))
	}
	w.senders(at).Or(who)
	return at + 1
}

// senders returns the marks of row at: the census ranks that echoed it.
func (w *echoWindow) senders(at int) census.Marks {
	return census.Marks(w.marks[at*w.stride : (at+1)*w.stride])
}

// row returns the position of cand's row, appending an empty one the
// first time cand is echoed in the window.
func (w *echoWindow) row(cand ids.ID) int {
	if i, ok := w.index[cand]; ok {
		return i
	}
	i := len(w.rows)
	if w.index == nil {
		w.index = make(map[ids.ID]int)
	}
	w.index[cand] = i
	w.rows = append(w.rows, echoRow{cand: cand, at: i})
	w.extend(w.stride)
	return i
}

// extend appends n zero words to the slab, within its capacity when the
// slab has held a window this large before.
func (w *echoWindow) extend(n int) {
	at := len(w.marks)
	w.marks = slices.Grow(w.marks, n)[:at+n]
	clear(w.marks[at:])
}

// widen re-lays the slab with a larger stride. It runs when a rank
// beyond the current row width first shows up: a few times while the
// first window meets the census, then never again for a frozen census.
func (w *echoWindow) widen(stride int) {
	old := w.stride
	w.stride = stride
	w.extend(len(w.rows) * (stride - old))
	// Back to front, so a row's new home never covers a row not yet moved.
	for i := len(w.rows) - 1; i >= 0; i-- {
		row := w.marks[i*stride : (i+1)*stride]
		copy(row, w.marks[i*old:(i+1)*old])
		clear(row[old:])
	}
}

// sorted returns the window's rows in ascending candidate order — the
// order LoopRound folds them in, so the echoes it emits do not depend on
// arrival order. The positional index is stale afterwards; reset follows.
func (w *echoWindow) sorted() []echoRow {
	slices.SortFunc(w.rows, func(a, b echoRow) int { return cmp.Compare(a.cand, b.cand) })
	return w.rows
}

// reset empties the window, keeping its storage and stride.
func (w *echoWindow) reset() {
	w.rows = w.rows[:0]
	w.marks = w.marks[:0]
	clear(w.index)
}
