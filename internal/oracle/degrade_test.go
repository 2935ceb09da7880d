package oracle

import (
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// Synthetic disruption events for driving a degraded oracle directly.
func partitionEvent(round int) trace.Event {
	return trace.Event{Round: round, Kind: trace.KindPartition, Size: 2}
}

func healEvent(round int) trace.Event {
	return trace.Event{Round: round, Kind: trace.KindHeal}
}

func dropEvent(round int) trace.Event {
	return trace.Event{Round: round, Kind: trace.KindLinkDrop, From: 1, To: 2}
}

// TestDegradedSuspendsDuringPartition asserts the wrapped oracle is not
// consulted while a partition is live nor during the recovery window,
// and that suspended rounds are not charged to its round clock.
func TestDegradedSuspendsDuringPartition(t *testing.T) {
	t.Parallel()
	var seen []int
	inner := NewFunc("probe", func(round int, _ []trace.Event) *Violation {
		seen = append(seen, round)
		return nil
	})
	d := NewDegraded(inner, 2)
	feed := func(round int, events ...trace.Event) {
		if v := d.Observe(round, events); v != nil {
			t.Fatalf("round %d: unexpected violation %+v", round, v)
		}
	}
	feed(1)
	feed(2, partitionEvent(2)) // suspended
	feed(3)                    // still partitioned
	feed(4, healEvent(4))      // heal: disruption round
	feed(5)                    // within recovery window (5-4 < 2)
	feed(6)                    // quiet for 2 rounds: resumes
	feed(7)
	// Rounds 2-5 were suspended (4 rounds): the inner clock resumes at
	// 6-4 = 2.
	want := []int{1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("inner oracle saw rounds %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("inner oracle saw rounds %v, want %v", seen, want)
		}
	}
}

// TestDegradedTerminationUnderPartition is the end-to-end degradation
// story: a termination bound that a partition would push past its bound
// does not fire spuriously, because only undisrupted rounds count.
func TestDegradedTerminationUnderPartition(t *testing.T) {
	t.Parallel()
	pending := []ids.ID{7}
	inner := NewTerminationBound("x-termination", 5, func() []ids.ID { return pending })
	d := NewDegraded(inner, 1)
	// 10 wall rounds, of which rounds 2..7 are partitioned (6 suspended
	// rounds incl. the heal's recovery round 8... heal at 8, recovery 1
	// suspends round 8 too).
	for round := 1; round <= 10; round++ {
		var events []trace.Event
		if round == 2 {
			events = append(events, partitionEvent(round))
		}
		if round == 8 {
			events = append(events, healEvent(round))
		}
		if round == 4 {
			pending = nil // the protocol actually finished mid-partition
		}
		if v := d.Observe(round, events); v != nil {
			t.Fatalf("round %d: degraded termination fired spuriously: %+v", round, v)
		}
	}
}

// TestDegradedStillFiresAfterRecovery asserts degradation only delays —
// a protocol that stays stuck after the network has been quiet for the
// warped bound still trips the monitor, with the real round reported.
func TestDegradedStillFiresAfterRecovery(t *testing.T) {
	t.Parallel()
	inner := NewTerminationBound("x-termination", 3, func() []ids.ID { return []ids.ID{9} })
	d := NewDegraded(inner, 1)
	var fired *Violation
	for round := 1; round <= 10 && fired == nil; round++ {
		var events []trace.Event
		if round == 2 {
			events = append(events, partitionEvent(round))
		}
		if round == 4 {
			events = append(events, healEvent(round))
		}
		fired = d.Observe(round, events)
	}
	if fired == nil {
		t.Fatal("degraded termination never fired on a permanently stuck protocol")
	}
	// Rounds 2,3 partitioned + round 4 heal-recovery = 3 suspended
	// rounds; the warped clock reaches the bound (3) at wall round 6.
	if fired.Round != 6 {
		t.Fatalf("violation at wall round %d, want 6 (bound 3 + 3 suspended rounds)", fired.Round)
	}
	if !strings.Contains(fired.Detail, "round bound 3") {
		t.Fatalf("detail %q should reference the configured bound", fired.Detail)
	}
}

// TestDegradedLinkActivitySuspends asserts link-level fault events
// (drops, rule activations) count as disruption too.
func TestDegradedLinkActivitySuspends(t *testing.T) {
	t.Parallel()
	calls := 0
	inner := NewFunc("probe", func(int, []trace.Event) *Violation {
		calls++
		return nil
	})
	d := NewDegraded(inner, 2)
	d.Observe(1, []trace.Event{dropEvent(1)})
	d.Observe(2, nil) // within recovery
	d.Observe(3, nil) // quiet for 2 rounds: resumes
	if calls != 1 {
		t.Fatalf("inner oracle consulted %d times, want 1 (round 3 only)", calls)
	}
}

// TestDegradedAgreementStaysUnconditional is the self-test for the
// planted-violation acceptance criterion at the oracle layer: an
// UNWRAPPED agreement oracle fires mid-partition — degradation is a
// choice per oracle, never an excuse for disagreement.
func TestDegradedAgreementStaysUnconditional(t *testing.T) {
	t.Parallel()
	claims := []Claim{
		{Node: 1, Key: decision, Value: OpinionValue(wire.V(0))},
		{Node: 2, Key: decision, Value: OpinionValue(wire.V(1))},
	}
	suite := NewSuite(
		NewAgreement("x-agreement", listed(&claims)),
		NewTerminationBound("x-termination", 1, func() []ids.ID { return []ids.ID{1} }),
	)
	// Wrap only liveness oracles, as chaos does.
	suite.Wrap(func(o Oracle) Oracle {
		if strings.HasSuffix(o.Name(), "-termination") {
			return NewDegraded(o, 2)
		}
		return nil
	})
	suite.ObserveRound(1, []trace.Event{partitionEvent(1)})
	vs := suite.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %+v, want exactly the agreement violation", vs)
	}
	if vs[0].Oracle != "x-agreement" {
		t.Fatalf("fired oracle %q, want x-agreement (unconditional)", vs[0].Oracle)
	}
	if vs[0].Round != 1 {
		t.Fatalf("agreement violation at round %d, want 1", vs[0].Round)
	}
}
