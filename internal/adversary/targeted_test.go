package adversary

import (
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

func TestImpersonatorSpamsOpinions(t *testing.T) {
	t.Parallel()
	imp := NewImpersonator(9, wire.V(666), []uint64{0, 7})
	h := newHarness(t, []ids.ID{1}, imp)
	h.run(4)
	inits, opinions := 0, 0
	instances := make(map[uint64]bool)
	for _, m := range h.sinks[1].received {
		switch p := m.Payload.(type) {
		case wire.Init:
			inits++
		case wire.Opinion:
			opinions++
			instances[p.Instance] = true
			if !p.X.Equal(wire.V(666)) {
				t.Fatalf("opinion value %v", p.X)
			}
		}
	}
	if inits != 1 {
		t.Fatalf("%d inits, want 1 (census join)", inits)
	}
	// Rounds 2, 3, 4 deliveries carry opinions from sends in 1..3; the
	// round-1 send was the init, so rounds 3 and 4 deliver 2 instances
	// each.
	if opinions != 4 {
		t.Fatalf("%d opinions, want 4", opinions)
	}
	if !instances[0] || !instances[7] {
		t.Fatalf("instances covered: %v", instances)
	}
}

func TestTerminateSpooferFloods(t *testing.T) {
	t.Parallel()
	sp := NewTerminateSpoofer(9)
	h := newHarness(t, []ids.ID{1}, sp)
	h.run(5)
	var kinds []wire.Kind
	maxK := uint64(0)
	for _, m := range h.sinks[1].received {
		kinds = append(kinds, m.Payload.Kind())
		if term, ok := m.Payload.(wire.Terminate); ok && term.Round > maxK {
			maxK = term.Round
		}
	}
	// Round 2 delivers init, round 3 the self-echo, rounds 4..5 the
	// terminate floods (k = 1..3 then 1..4).
	if kinds[0] != wire.KindInit || kinds[1] != wire.KindIDEcho {
		t.Fatalf("prelude kinds = %v", kinds[:2])
	}
	if maxK < 3 {
		t.Fatalf("terminate flood too shallow: max k = %d", maxK)
	}
}

func TestMembershipChurnerFlapsViews(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 3, 4, 9}
	dir := NewDirectory(all, []ids.ID{9})
	ch := NewMembershipChurner(9, dir)
	h := newHarness(t, all[:4], ch)
	h.run(9)
	halfA, halfB := dir.Halves()
	aPresents, bAbsents, bPresents := 0, 0, 0
	for _, m := range h.sinks[halfA[0]].received {
		if _, ok := m.Payload.(wire.Present); ok {
			aPresents++
		}
	}
	for _, m := range h.sinks[halfB[0]].received {
		switch m.Payload.(type) {
		case wire.Absent:
			bAbsents++
		case wire.Present:
			bPresents++
		}
	}
	if aPresents == 0 {
		t.Fatal("half A never saw a present")
	}
	if bAbsents == 0 {
		t.Fatal("half B never saw an absent")
	}
	// Half B sees presents only from the every-4th-round broadcast.
	if bPresents == 0 {
		t.Fatal("half B never saw the broadcast present")
	}
}

func TestMembershipChurnerSendsBogusAcks(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 9}
	dir := NewDirectory(all, []ids.ID{9})
	h := newHarness(t, nil, NewMembershipChurner(9, dir))
	// A node announces presence in round 1; its present lands at the
	// churner in round 2 (≡ 2 mod 4), which replies with a bogus ack.
	announcer := &presentOnce{id: 1}
	if err := h.net.Add(announcer); err != nil {
		t.Fatal(err)
	}
	h.run(4)
	found := false
	for _, m := range announcer.received {
		if ack, ok := m.Payload.(wire.Ack); ok {
			found = true
			if ack.Round < 1000 {
				t.Fatalf("ack round %d not obviously bogus", ack.Round)
			}
		}
	}
	if !found {
		t.Fatal("churner never acked the present")
	}
}

// presentOnce broadcasts present in round 1 and records its inbox.
type presentOnce struct {
	id       ids.ID
	received []simnet.Received
}

func (p *presentOnce) ID() ids.ID { return p.id }
func (p *presentOnce) Done() bool { return false }
func (p *presentOnce) Step(env *simnet.RoundEnv) {
	if env.Round == 1 {
		env.Broadcast(wire.Present{})
	}
	p.received = append(p.received, slices.Collect(env.Inbox.All())...)
}

func TestGhostCandidateRepeat(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 3, 4, 9}
	dir := NewDirectory(all, []ids.ID{9})
	ghosts := []ids.ID{100, 200}
	g := NewGhostCandidateRepeat(9, dir, ghosts, 2)
	h := newHarness(t, all[:4], g)
	h.run(8)
	halfA, _ := dir.Halves()
	var seen []ids.ID
	for _, m := range h.sinks[halfA[0]].received {
		if echo, ok := m.Payload.(wire.IDEcho); ok && echo.Candidate != 9 {
			seen = append(seen, echo.Candidate)
		}
	}
	want := []ids.ID{100, 100, 200, 200}
	if len(seen) != len(want) {
		t.Fatalf("ghost echoes %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ghost echoes %v, want %v", seen, want)
		}
	}
	// A non-positive repeat is clamped to 1.
	clamped := NewGhostCandidateRepeat(9, dir, ghosts, 0)
	if clamped.repeat != 1 {
		t.Fatalf("repeat = %d, want 1", clamped.repeat)
	}
}
