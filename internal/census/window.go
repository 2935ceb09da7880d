package census

import "slices"

// Window is the counting step the paper writes once and reuses "in
// reliable-broadcast fashion": for each key — an (m, s) pair in Algorithm
// 1, a candidate in the rotor-coordinator, an identifier or a
// terminate(k) in renaming — which distinct censused senders named it
// since the last Fold, and then the rule itself: echo at n_v/3, accept at
// 2n_v/3.
//
// Senders arrive as whole sets of census ranks (one per distinct payload
// of the round's broadcast block, translated by Ranks) and are ORed into
// one slab — a row of stride words per key, each a Marks over the
// senders' ranks — so a sender that repeats itself, within an inbox or
// across the inboxes of one window, still counts once. There is no
// key→row index: Add ORs into the row it guesses and otherwise appends a
// fresh one, so a repeated key may hold several rows, which Fold merges,
// and a window holds at most one row per Add. Every set of one window is
// laid over one census state (see the package doc: a live census is
// folded in the Step that observed it, a window spanning Steps counts
// against a Frozen), so they all have one length, and the window takes
// its stride from its first Add. The slab is truncated and reused at the
// next window instead of rebuilt. The zero value is an empty window.
type Window[K comparable] struct {
	rows   []windowRow[K] // the window's rows, a repeated key's possibly several
	next   int            // the row after the last one added to
	stride int            // words per row
	marks  []uint64       // len(rows)*stride words
}

// windowRow names the key of marks[at*stride : (at+1)*stride]. Until
// Fold sorts the rows into key order, at is the row's own position.
type windowRow[K comparable] struct {
	key K
	at  int
}

// Add records that the senders of census ranks who named key; who is as
// long as every other set of the window (a longer one runs out of the
// row and panics). Every inbox of a window, and every sender of a
// private segment, brings the same keys in the same (encoding) order, so
// the row after the last one added to — wrapping to the first — is
// nearly always key's row; when it is not, key gets a fresh row, and
// Fold merges it with key's others.
func (w *Window[K]) Add(key K, who Marks) {
	if len(w.rows) == 0 {
		w.stride = len(who)
	}
	at := w.next
	if at >= len(w.rows) {
		at = 0
	}
	if at >= len(w.rows) || w.rows[at].key != key {
		at = w.row(key)
	}
	w.senders(at).Or(who)
	w.next = at + 1
}

// senders returns the marks of row at: the census ranks that named it.
func (w *Window[K]) senders(at int) Marks {
	return Marks(w.marks[at*w.stride : (at+1)*w.stride])
}

// row appends an empty row for key and returns its position.
func (w *Window[K]) row(key K) int {
	i := len(w.rows)
	w.rows = append(w.rows, windowRow[K]{key: key, at: i})
	// An empty row, within the slab's capacity when it has held a window
	// this large before.
	at := len(w.marks)
	w.marks = slices.Grow(w.marks, w.stride)[:at+w.stride]
	clear(w.marks[at:])
	return i
}

// Fold applies the echo rule to the window and empties it, keeping its
// storage. Keys are visited in ascending order (by order, a total order
// under which only equal keys compare 0), so what the caller sends does
// not depend on arrival order; a key that accepted already holds is
// skipped, and of the rest echo is called for each one named by at least
// nv/3 distinct senders — quorum reporting whether they were at least
// 2nv/3, the point at which the caller accepts it. accepted is consulted
// just before each key's turn, after the echo calls of the smaller keys.
//
// accepted may turn true during a fold (an echo accepts) but never
// false, so rows whose key it holds when the fold starts are dropped
// before the sort, and only the rest are sorted and their rows of one
// key merged into one count.
func (w *Window[K]) Fold(nv int, order func(a, b K) int, accepted func(K) bool, echo func(key K, quorum bool)) {
	rows := w.rows
	if accepted != nil {
		rows = rows[:0]
		for _, row := range w.rows {
			if !accepted(row.key) {
				rows = append(rows, row)
			}
		}
	}
	slices.SortFunc(rows, func(a, b windowRow[K]) int { return order(a.key, b.key) })
	for i := 0; i < len(rows); {
		key, who := rows[i].key, w.senders(rows[i].at)
		for i++; i < len(rows) && rows[i].key == key; i++ {
			who.Or(w.senders(rows[i].at))
		}
		if accepted != nil && accepted(key) {
			continue
		}
		if count := who.Count(); AtLeastThird(count, nv) {
			echo(key, AtLeastTwoThirds(count, nv))
		}
	}
	w.rows = w.rows[:0]
	w.marks = w.marks[:0]
	w.next = 0
}
