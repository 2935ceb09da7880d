package simnet

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"

	"uba/internal/wire"
)

// This file is the intern table: the engine's one authority on which
// sends carry the same message and in what order messages go. The step
// merge interns every send straight from its node's byte buffer, so a
// merged send carries the index of its encoding's entry and no bytes;
// one rank pass then sorts the round's distinct encodings by bytes and
// renumbers the sends, so that comparing two sends' ranks compares their
// encodings. The route pass sorts, dedups and materializes on ranks, and
// the block index groups the broadcast block by them. Each entry also
// holds the encoding decoded once: an all-to-all echo round merges n²
// sends but only n distinct encodings, and every Received that carries
// one shares the one string and the one payload.
//
// It keeps two generations: cur, the encodings merged this round, and
// prev, those of the round before. Each step merge starts by turning cur
// into prev and emptying the old prev, so the table holds at most two
// rounds' distinct payloads however long the network runs, and an
// encoding sent in consecutive rounds is decoded once. A hit in prev
// moves the entry into cur; only a miss in both allocates.
//
// Each generation is an open-addressing hash table over recycled
// slices. A new generation's slot table is sized for as many entries as
// the last one ended with, so a round that repeats the last one's
// traffic never rehashes, and a round clears and probes O(G) slots — G
// the distinct encodings of it and the round before — whatever size the
// table once grew to. A warm table inserts and ranks without
// allocating. Ranks are a pure function of the round's encodings, so
// the hash seed shows in nothing a process reads.

// interned is one distinct encoding with its decoded payload and hash.
type interned struct {
	enc string
	p   wire.Payload
	h   uint64
}

// internGen is one generation: its entries in first-met order, and the
// slot table that finds them. A slot holds 1 + an entry's index, 0 when
// empty; len(slots) is a power of two at least twice len(entries).
type internGen struct {
	entries []interned
	slots   []int32
}

// internTable is the two-generation table. next is where the merge's
// next lookup is expected in cur: in an echo round every sender queues
// the same things in the same order, so the entry after the last hit is
// nearly always the next one asked for. prevNext is the same guess in
// prev, for a round that repeats the last one's traffic in the same
// order; a hit there also lends its hash. ranked is cur's encodings in
// byte order, each with its entry's index — the rank pass's result, and
// how a rank finds its entry — and rankOf is its inverse, scratch of
// the pass.
type internTable struct {
	cur, prev internGen
	next      int
	prevNext  int
	seed      maphash.Seed
	ranked    []rankRef
	rankOf    []uint32
}

// rankRef is an entry of cur as the rank pass sorts it: its encoding,
// whose first eight bytes, big-endian and zero-padded, are also key, and
// its index in cur.
type rankRef struct {
	key uint64
	enc string
	i   int32
}

// minSlots is the slot table a fresh generation starts from.
const minSlots = 16

// rotate starts a step merge: cur becomes prev and the old prev, emptied of
// its payloads, becomes the new cur, with slots for as many entries as
// prev holds.
func (t *internTable) rotate() {
	t.cur, t.prev = t.prev, t.cur
	clear(t.cur.entries)
	t.cur.entries = t.cur.entries[:0]
	slots := minSlots
	for slots < 2*(len(t.prev.entries)+1) {
		slots *= 2
	}
	t.cur.slots = grown(t.cur.slots, slots)
	clear(t.cur.slots)
	t.next, t.prevNext = 0, 0
}

// lookup returns the index in cur of enc's entry, adding it to cur. Only
// an encoding that neither generation holds allocates: its string and
// its decoded payload, once.
func (t *internTable) lookup(enc []byte) int {
	c := &t.cur
	if i := t.next - 1; i >= 0 && c.entries[i].enc == string(enc) {
		return i // the last hit again: every sender said the same thing
	}
	if i := t.next; i < len(c.entries) && c.entries[i].enc == string(enc) {
		t.next = i + 1
		return i
	}
	var h uint64
	j := t.prevNext
	if j < len(t.prev.entries) && t.prev.entries[j].enc == string(enc) {
		h = t.prev.entries[j].h
	} else {
		if t.seed == (maphash.Seed{}) {
			t.seed = maphash.MakeSeed()
		}
		h, j = maphash.Bytes(t.seed, enc), -1
	}
	i := c.find(h, enc)
	if i < 0 {
		if j < 0 {
			j = t.prev.find(h, enc)
		}
		if j >= 0 {
			i = c.insert(t.prev.entries[j])
		} else {
			i = c.insert(interned{enc: string(enc), p: mustDecode(enc), h: h})
		}
	}
	if j >= 0 {
		t.prevNext = j + 1
	}
	t.next = i + 1
	return i
}

// admit interns sends, whose at are offsets into enc, the bytes of the
// node that queued them: each at becomes the index in cur of the send's
// encoding.
func (t *internTable) admit(sends []send, enc []byte) {
	for i := range sends {
		s := &sends[i]
		s.at = uint32(t.lookup(enc[s.at : s.at+s.n]))
	}
}

// rank sorts cur's encodings by bytes and renumbers sends, whose at are
// indices in cur, to their encodings' ranks: from then on two sends'
// ranks compare as their encodings do, and entry finds a rank's entry.
func (t *internTable) rank(sends []send) {
	c := &t.cur
	if len(c.entries) < len(t.ranked) {
		clear(t.ranked[len(c.entries):]) // pin no encoding of an older round
	}
	r := grown(t.ranked, len(c.entries))
	for i := range c.entries {
		var b [8]byte
		copy(b[:], c.entries[i].enc)
		r[i] = rankRef{key: binary.BigEndian.Uint64(b[:]), enc: c.entries[i].enc, i: int32(i)}
	}
	slices.SortFunc(r, compareRefs)
	t.rankOf = grown(t.rankOf, len(r))
	for k := range r {
		t.rankOf[r[k].i] = uint32(k)
	}
	for i := range sends {
		sends[i].at = t.rankOf[sends[i].at]
	}
	t.ranked = r
}

// compareRefs orders refs by encoding. Keys that differ decide as the
// encodings do — zero padding puts a shorter encoding before any longer
// one it begins — and settle most comparisons without reading the
// strings.
func compareRefs(a, b rankRef) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return strings.Compare(a.enc, b.enc)
}

// entry returns the entry of cur whose encoding has rank r.
func (t *internTable) entry(r uint32) *interned { return &t.cur.entries[t.ranked[r].i] }

// find returns the index of enc's entry, or -1.
func (g *internGen) find(h uint64, enc []byte) int {
	if len(g.slots) == 0 {
		return -1
	}
	mask := uint64(len(g.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			return -1
		}
		if e := &g.entries[s-1]; e.h == h && e.enc == string(enc) {
			return int(s - 1)
		}
	}
}

// insert adds e, which g does not hold, and returns its index. The slot
// table doubles, rehashing, when it would pass half full.
func (g *internGen) insert(e interned) int {
	if 2*(len(g.entries)+1) > len(g.slots) {
		g.slots = grown(g.slots, max(minSlots, 2*len(g.slots)))
		clear(g.slots)
		for i := range g.entries {
			g.place(g.entries[i].h, int32(i+1))
		}
	}
	g.entries = append(g.entries, e)
	g.place(e.h, int32(len(g.entries)))
	return len(g.entries) - 1
}

// place puts slot value s at h's first free slot.
func (g *internGen) place(h uint64, s int32) {
	mask := uint64(len(g.slots) - 1)
	i := h & mask
	for g.slots[i] != 0 {
		i = (i + 1) & mask
	}
	g.slots[i] = s
}

// mustDecode decodes an encoding the engine made itself, with
// wire.AppendEncode: a failure is an engine or wire bug.
func mustDecode(enc []byte) wire.Payload {
	p, err := wire.Decode(enc)
	if err != nil {
		panic("simnet: cannot decode an engine-made encoding: " + err.Error())
	}
	return p
}
