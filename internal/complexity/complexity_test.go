package complexity_test

import (
	"testing"

	"uba/internal/complexity"
)

// TestBound pins the budget arithmetic the oracle applies.
func TestBound(t *testing.T) {
	cases := []struct {
		c        complexity.Class
		n, slack int
		want     int
	}{
		{complexity.None, 10, 8, 0},
		{complexity.Const, 10, 8, 8},
		{complexity.Linear, 10, 8, 80},
		{complexity.Quadratic, 10, 8, 800},
	}
	for _, tc := range cases {
		if got := tc.c.Bound(tc.n, tc.slack); got != tc.want {
			t.Errorf("%s.Bound(%d, %d) = %d, want %d", tc.c, tc.n, tc.slack, got, tc.want)
		}
	}
}

// TestLookup checks the primary-type lookup the campaigns use.
func TestLookup(t *testing.T) {
	ct, ok := complexity.Lookup("ordering")
	if !ok || ct.Broadcasts != complexity.Linear || ct.Unicasts != complexity.Linear {
		t.Errorf("Lookup(ordering) = %v, %v", ct, ok)
	}
	if _, ok := complexity.Lookup("earlydecide"); ok {
		t.Error("Lookup(earlydecide) found a contract")
	}
}
