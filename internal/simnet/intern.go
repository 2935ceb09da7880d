package simnet

import (
	"hash/maphash"

	"uba/internal/wire"
)

// This file is the route pass's intern table: the engine's one decoded
// payload per distinct encoding. A send carries only bytes (see send),
// so materializing a delivery needs the payload those bytes encode. An
// all-to-all echo round routes n² sends but only n distinct encodings,
// and decoding per send would cost the heap what encoding per send
// used to. The table decodes each distinct encoding once, and every
// Received that carries it shares the one string and the one payload.
//
// It keeps two generations: cur, the encodings routed this round, and
// prev, those of the round before. Each route pass starts by turning cur
// into prev and emptying the old prev, so the table holds at most two
// rounds' distinct payloads however long the network runs, and an
// encoding routed in consecutive rounds is decoded once. A hit in prev
// moves the entry into cur; only a miss in both allocates.
//
// Each generation is an open-addressing hash table over recycled
// slices. A new generation's slot table is sized for as many entries as
// the last one ended with, so a round that repeats the last one's
// traffic never rehashes, and a round clears and probes O(G) slots — G
// the distinct encodings of it and the round before — whatever size the
// table once grew to. A warm
// table inserts without allocating. Nothing reads the table in an order,
// so the hash seed shows in nothing a process reads.

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

// internTable is the two-generation table. next is where the route
// pass's next lookup is expected in cur: a sender's sends arrive sorted
// by encoding, and in an echo round every sender says the same things,
// so the entry after the last hit is nearly always the next one asked
// for. prevNext is the same guess in prev, for a round that repeats the
// last one's traffic in the same order; a hit there also lends its hash.
type internTable struct {
	cur, prev internGen
	next      int
	prevNext  int
	seed      maphash.Seed
}

// minSlots is the slot table a fresh generation starts from.
const minSlots = 16

// rotate starts a round: cur becomes prev and the old prev, emptied of
// its payloads, becomes the new cur, with slots for as many entries as
// prev holds.
//
//lint:noalloc clears and reslices the recycled generation in place
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
//
//lint:noalloc a hit copies an entry between the recycled generations; only a first-seen encoding allocates
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
			//lint:coldpath a first-seen encoding is copied and decoded once, then shared by every delivery that carries it
			i = c.insert(interned{enc: string(enc), p: mustDecode(enc), h: h})
		}
	}
	if j >= 0 {
		t.prevNext = j + 1
	}
	t.next = i + 1
	return i
}

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
//
//lint:noalloc the entries append and the slot resize are recycled, capacity-guarded growth
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
