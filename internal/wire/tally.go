package wire

import "iter"

// Tally counts one round's opinions by value. A round carries a handful
// of distinct values (one, when the correct nodes agree), so the counts
// are a short slice searched linearly rather than a map built and thrown
// away per round. The zero value is an empty tally.
type Tally struct {
	votes []vote
}

type vote struct {
	v     Value
	count int
}

// Add counts k more messages carrying v.
func (t *Tally) Add(v Value, k int) {
	if k <= 0 {
		return
	}
	for i := range t.votes {
		if t.votes[i].v.Equal(v) {
			t.votes[i].count += k
			return
		}
	}
	t.votes = append(t.votes, vote{v: v, count: k})
}

// Reset empties the tally, keeping its storage for the next count.
func (t *Tally) Reset() { t.votes = t.votes[:0] }

// Best returns the value with the highest count, breaking ties toward the
// smaller value so every node resolves identically; (zero Value, 0) when
// nothing was counted.
func (t *Tally) Best() (Value, int) {
	var best vote
	for i, e := range t.votes {
		if i == 0 || e.count > best.count || (e.count == best.count && e.v.Less(best.v)) {
			best = e
		}
	}
	return best.v, best.count
}

// All yields every counted value with its count, each value once. The
// protocols only ask for Best; this is how tests see the whole tally.
func (t *Tally) All() iter.Seq2[Value, int] {
	return func(yield func(Value, int) bool) {
		for _, e := range t.votes {
			if !yield(e.v, e.count) {
				return
			}
		}
	}
}
