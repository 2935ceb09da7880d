package oracle

import (
	"strings"
	"testing"

	"uba/internal/complexity"
	"uba/internal/simnet"
)

func acct(nodes, maxB, maxU int) simnet.RoundAccounting {
	return simnet.RoundAccounting{
		Nodes:                nodes,
		CorrectMaxBroadcasts: maxB,
		CorrectMaxUnicasts:   maxU,
	}
}

// TestComplexityOracleBounds pins the firing boundary on both kinds: a
// Linear broadcast contract with slack 2 allows exactly 2n per node,
// and a None unicast contract tolerates nothing.
func TestComplexityOracleBounds(t *testing.T) {
	t.Parallel()
	o := NewComplexity("fam", complexity.Contract{Broadcasts: complexity.Linear}, 2)
	if o.Name() != "complexity:fam" {
		t.Errorf("Name() = %q", o.Name())
	}
	if v := o.ObserveStats(3, acct(10, 20, 0)); v != nil {
		t.Errorf("at the bound (20 = 2*10): unexpected violation %+v", v)
	}
	v := o.ObserveStats(3, acct(10, 21, 0))
	if v == nil {
		t.Fatal("one past the bound: no violation")
	}
	if v.Round != 3 || !strings.Contains(v.Detail, "21 broadcasts") {
		t.Errorf("violation = %+v", v)
	}
	if v := o.ObserveStats(4, acct(10, 0, 1)); v == nil {
		t.Error("unicast under a 0 contract: no violation")
	} else if !strings.Contains(v.Detail, "unicasts") {
		t.Errorf("violation blames the wrong kind: %+v", v)
	}
	if v := o.ObserveStats(5, acct(10, 0, 0)); v != nil {
		t.Errorf("silent round: unexpected violation %+v", v)
	}
}

// TestNewComplexityFor checks the registry lookup path: registered
// families get an oracle, unknown ones get nil (attach nothing).
func TestNewComplexityFor(t *testing.T) {
	t.Parallel()
	o := NewComplexityFor("relbcast", 0)
	if o == nil {
		t.Fatal("no oracle for relbcast")
	}
	// relbcast is broadcasts=O(n) unicasts=0 with the default slack.
	n := 5
	bound := DefaultComplexitySlack * n
	if v := o.ObserveStats(1, acct(n, bound, 0)); v != nil {
		t.Errorf("at default bound: %+v", v)
	}
	if v := o.ObserveStats(1, acct(n, bound+1, 0)); v == nil {
		t.Error("past default bound: no violation")
	}
	if o := NewComplexityFor("earlydecide", 0); o != nil {
		t.Errorf("oracle for unregistered family: %v", o.Name())
	}
}

// TestSuiteObserveRoundStats checks the suite fans accounting out to
// StatsOracles, records the first violation, and never re-fires an
// oracle that already reported.
func TestSuiteObserveRoundStats(t *testing.T) {
	t.Parallel()
	s := NewSuite()
	s.Add(NewComplexity("fam", complexity.Contract{}, 1)) // all-zero contract
	s.ObserveRoundStats(1, acct(4, 0, 0))
	if s.Failed() {
		t.Fatalf("clean round fired: %+v", s.Violations())
	}
	s.ObserveRoundStats(2, acct(4, 1, 1))
	s.ObserveRoundStats(3, acct(4, 1, 1))
	vs := s.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1 (oracle must fire once)", len(vs))
	}
	if vs[0].Round != 2 || vs[0].Oracle != "complexity:fam" {
		t.Errorf("first violation = %+v", vs[0])
	}
}
