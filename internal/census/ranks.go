package census

import "uba/internal/ids"

// Ranks is a census laid over one round's broadcasters: the table that
// turns "which broadcasters said it" — a set of positions in the engine's
// ascending broadcaster list, the same for every receiver — into "which
// members of the census said it", a set of the census's ranks. The
// engine lays it once per round for each census its readers count
// against (simnet.Inbox.Counted: Lay, then Of per payload), by one merge
// of two ascending lists, the broadcasters and the census, where a pass
// over the messages themselves would need one census lookup per message.
// A reader keeps one for its private segment only: laid over its census
// with no broadcasters (Reset), it ranks one sender at a time (One).
//
// Positions whose ranks are consecutive collapse into a run, and a set
// is translated run by run with shifted word ORs. Both lists ascend by
// id, so a run splits only at a hole: a broadcaster the census does not
// know, or a member that stayed silent. When the round's broadcasters
// are the census the whole table is one run and a translation is a
// handful of word ORs; at worst every position is its own run, which is
// the per-bit loop — the same code, and the same result, since a run is
// only ever a shorthand for its positions.
//
// The table is laid over a sealed set, which never changes: it gives a
// census's ranks until the census's next Observe replaces the set, and
// a snapshot's for good. The zero value is ready for Reset. The storage is the table's own and is reused from round to
// round.
type Ranks struct {
	of   *ids.Set // the census's members, a rank being a position
	runs []rankRun
	who  Marks // the set Of and One return, MarkWords(of.Len()) words
}

// rankRun says positions pos..pos+n-1 hold ranks rank..rank+n-1.
type rankRun struct{ pos, rank, n int }

// Reset rebuilds the table for the round whose distinct broadcasters, in
// the engine's ascending order, are broadcasters, as seen by the census
// whose members (Census.Members) are of.
func (t *Ranks) Reset(broadcasters []ids.ID, of *ids.Set) {
	t.of = of
	t.Lay(broadcasters, of)
}

// Lay is Reset for a table that only translates (Of): it reads of but
// does not keep it, so Rank and One are left to the last Reset.
func (t *Ranks) Lay(broadcasters []ids.ID, of *ids.Set) {
	t.runs = t.runs[:0]
	r, n := 0, of.Len()
	for pos, id := range broadcasters {
		for r < n && of.At(r) < id {
			r++
		}
		if r < n && of.At(r) == id {
			t.place(pos, r)
		}
	}
	t.who = t.who.Cleared(n)
}

// place records that position pos holds rank r, extending the last run
// when both continue it.
func (t *Ranks) place(pos, r int) {
	if k := len(t.runs) - 1; k >= 0 {
		if last := &t.runs[k]; last.pos+last.n == pos && last.rank+last.n == r {
			last.n++
			return
		}
	}
	t.runs = append(t.runs, rankRun{pos: pos, rank: r, n: 1})
}

// Rank is the census's own answer for one sender, by binary search.
func (t *Ranks) Rank(sender ids.ID) (int, bool) { return t.of.Rank(sender) }

// Of translates by, a set of broadcaster positions, into the census
// ranks of those broadcasters, and reports whether any of them is in the
// census at all. The returned set is the table's and is overwritten by
// the next Of or One.
func (t *Ranks) Of(by Marks) (Marks, bool) {
	t.who.Reset()
	var moved uint64
	for _, run := range t.runs {
		moved |= orBits(t.who, by, run.rank, run.pos, run.n)
	}
	return t.who, moved != 0
}

// One is Of for a message that did not come through the broadcast
// block: the one-member set of its sender's rank.
func (t *Ranks) One(sender ids.ID) (Marks, bool) {
	r, ok := t.of.Rank(sender)
	if !ok {
		return nil, false
	}
	t.who.Reset()
	t.who.Set(r)
	return t.who, true
}

// orBits ORs bits src[spos, spos+n) into dst[dpos, dpos+n), up to a word
// at a time, and returns the OR of the bits it moved. A run may start
// and end anywhere in a word on either side.
func orBits(dst, src Marks, dpos, spos, n int) uint64 {
	var moved uint64
	for n > 0 {
		k := min(n, 64)
		so := spos & 63
		w := src[spos>>6] >> so
		if so+k > 64 {
			w |= src[spos>>6+1] << (64 - so)
		}
		if k < 64 {
			w &= 1<<k - 1
		}
		if w != 0 {
			do := dpos & 63
			dst[dpos>>6] |= w << do
			if do+k > 64 {
				dst[dpos>>6+1] |= w >> (64 - do)
			}
			moved |= w
		}
		spos, dpos, n = spos+k, dpos+k, n-k
	}
	return moved
}
