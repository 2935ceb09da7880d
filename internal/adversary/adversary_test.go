package adversary

import (
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// sink records everything delivered to it.
type sink struct {
	id       ids.ID
	received []simnet.Received
}

func (s *sink) ID() ids.ID { return s.id }
func (s *sink) Done() bool { return false }
func (s *sink) Step(env *simnet.RoundEnv) {
	s.received = append(s.received, slices.Collect(env.Inbox.All())...)
}

// harness wires one adversary against a set of sinks.
type harness struct {
	t     *testing.T
	net   *simnet.Network
	sinks map[ids.ID]*sink
}

func newHarness(t *testing.T, sinkIDs []ids.ID, byz simnet.Process) *harness {
	t.Helper()
	h := &harness{
		t:     t,
		net:   simnet.New(simnet.Config{MaxRounds: 100}),
		sinks: make(map[ids.ID]*sink, len(sinkIDs)),
	}
	for _, id := range sinkIDs {
		s := &sink{id: id}
		h.sinks[id] = s
		if err := h.net.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.net.AddByzantine(byz); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *harness) run(rounds int) {
	h.t.Helper()
	for i := 0; i < rounds; i++ {
		if err := h.net.RunRound(); err != nil {
			h.t.Fatal(err)
		}
	}
}

func TestDirectory(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 3, 4, 5, 6}
	dir := NewDirectory(all, []ids.ID{5, 6})
	if !dir.IsByzantine(5) || dir.IsByzantine(1) {
		t.Fatal("IsByzantine wrong")
	}
	correct := dir.Correct()
	if len(correct) != 4 || correct[0] != 1 || correct[3] != 4 {
		t.Fatalf("Correct() = %v", correct)
	}
	a, b := dir.Halves()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("halves: %v / %v", a, b)
	}
	gotAll := dir.All()
	gotAll[0] = 99
	if dir.All()[0] == 99 {
		t.Fatal("All leaked internal slice")
	}
}

func TestSilentNeverSends(t *testing.T) {
	t.Parallel()
	h := newHarness(t, []ids.ID{1, 2}, NewSilent(9))
	h.run(5)
	for _, s := range h.sinks {
		if len(s.received) != 0 {
			t.Fatalf("silent adversary sent %d messages", len(s.received))
		}
	}
}

// chirper is a correct-ish process that broadcasts every round; used as
// the inner process for Crash.
type chirper struct{ id ids.ID }

func (c *chirper) ID() ids.ID { return c.id }
func (c *chirper) Done() bool { return false }
func (c *chirper) Step(env *simnet.RoundEnv) {
	env.Broadcast(wire.Present{})
}

func TestCrashStopsAfterRound(t *testing.T) {
	t.Parallel()
	h := newHarness(t, []ids.ID{1}, NewCrash(&chirper{id: 9}, 3))
	h.run(6)
	// Broadcasts in rounds 1..3 arrive in rounds 2..4: exactly 3.
	got := len(h.sinks[1].received)
	if got != 3 {
		t.Fatalf("received %d messages, want 3 (crash after round 3)", got)
	}
	if NewCrash(&chirper{id: 9}, 3).Done() {
		t.Fatal("crashed node must not report done")
	}
}

func TestRBEquivocatorSplitsBodies(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 3, 4, 9}
	dir := NewDirectory(all, []ids.ID{9})
	eq := NewRBEquivocator(9, dir, 9, []byte("A"), []byte("B"))
	h := newHarness(t, all[:4], eq)
	h.run(2)
	halfA, halfB := dir.Halves()
	wantBody := func(id ids.ID) string {
		for _, a := range halfA {
			if a == id {
				return "A"
			}
		}
		for _, b := range halfB {
			if b == id {
				return "B"
			}
		}
		t.Fatalf("id %v in neither half", id)
		return ""
	}
	for id, s := range h.sinks {
		if len(s.received) == 0 {
			t.Fatalf("node %v received nothing", id)
		}
		rb, ok := s.received[0].Payload.(wire.RBMessage)
		if !ok {
			t.Fatalf("node %v first payload %T", id, s.received[0].Payload)
		}
		if string(rb.Body) != wantBody(id) {
			t.Fatalf("node %v got body %q, want %q", id, rb.Body, wantBody(id))
		}
		if rb.Source != 9 {
			t.Fatalf("source %v", rb.Source)
		}
	}
}

func TestRBEquivocatorHelperSendsPresent(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 8, 9}
	dir := NewDirectory(all, []ids.ID{8, 9})
	helper := NewRBEquivocator(8, dir, 9, []byte("A"), []byte("B"))
	h := newHarness(t, all[:2], helper)
	h.run(2)
	// Round 1: helper (not the source) broadcasts present.
	found := false
	for _, m := range h.sinks[1].received {
		if _, ok := m.Payload.(wire.Present); ok && m.From == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("helper did not announce presence in round 1")
	}
}

func TestEchoAmplifierForgesAndAmplifies(t *testing.T) {
	t.Parallel()
	amp := NewEchoAmplifier(9, 77, []byte("forged"))
	h := newHarness(t, []ids.ID{1}, amp)
	h.run(3)
	forged := 0
	for _, m := range h.sinks[1].received {
		echo, ok := m.Payload.(wire.RBEcho)
		if ok && echo.Source == 77 && string(echo.Body) == "forged" {
			forged++
		}
	}
	if forged < 2 {
		t.Fatalf("forged echo delivered %d times, want every round", forged)
	}
}

func TestGhostCandidatePacing(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 3, 4, 9}
	dir := NewDirectory(all, []ids.ID{9})
	ghosts := []ids.ID{100, 200}
	g := NewGhostCandidate(9, dir, ghosts)
	h := newHarness(t, all[:4], g)
	h.run(6)
	halfA, _ := dir.Halves()
	target := h.sinks[halfA[0]]
	var ghostEchoes []ids.ID
	for _, m := range target.received {
		if echo, ok := m.Payload.(wire.IDEcho); ok && echo.Candidate != 9 {
			ghostEchoes = append(ghostEchoes, echo.Candidate)
		}
	}
	// One ghost per round, in order, then exhaustion.
	if len(ghostEchoes) != len(ghosts) {
		t.Fatalf("ghost echoes %v, want exactly %v", ghostEchoes, ghosts)
	}
	for i, want := range ghosts {
		if ghostEchoes[i] != want {
			t.Fatalf("ghost order %v, want %v", ghostEchoes, ghosts)
		}
	}
	// The other half must see no ghosts.
	_, halfB := dir.Halves()
	for _, m := range h.sinks[halfB[0]].received {
		if echo, ok := m.Payload.(wire.IDEcho); ok && echo.Candidate != 9 {
			t.Fatalf("half B received ghost %v", echo.Candidate)
		}
	}
}

func TestSplitVoterFollowsPhaseGrid(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 9}
	dir := NewDirectory(all, []ids.ID{9})
	sv := NewSplitVoter(9, dir, wire.V(0), wire.V(1))
	h := newHarness(t, all[:2], sv)
	h.run(8)
	// Deliveries at round r carry what was sent at r-1. Expected kinds
	// by send round: 1 init, 2 idecho, 3 input, 4 prefer, 5 strongprefer,
	// 6 opinion, 7 (silent).
	wantKinds := map[int]wire.Kind{
		2: wire.KindInit,
		3: wire.KindIDEcho,
		4: wire.KindInput,
		5: wire.KindPrefer,
		6: wire.KindStrongPrefer,
		7: wire.KindOpinion,
	}
	// Reconstruct arrival rounds: sinks record in order; count per
	// round by re-running with explicit bookkeeping instead.
	net := simnet.New(simnet.Config{MaxRounds: 100})
	rec := &roundRecorder{id: 1, byRound: make(map[int][]wire.Kind)}
	if err := net.Add(rec); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(&sink{id: 2}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddByzantine(NewSplitVoter(9, dir, wire.V(0), wire.V(1))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for round, want := range wantKinds {
		kinds := rec.byRound[round]
		if len(kinds) != 1 || kinds[0] != want {
			t.Fatalf("round %d: kinds %v, want [%v]", round, kinds, want)
		}
	}
	if len(rec.byRound[8]) != 0 {
		t.Fatalf("round 8 (resolve round, sent at 7): got %v, want silence", rec.byRound[8])
	}
}

type roundRecorder struct {
	id      ids.ID
	byRound map[int][]wire.Kind
}

func (r *roundRecorder) ID() ids.ID { return r.id }
func (r *roundRecorder) Done() bool { return false }
func (r *roundRecorder) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		r.byRound[env.Round] = append(r.byRound[env.Round], m.Payload.Kind())
	}
}

func TestSplitVoterTargetsHalves(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 3, 4, 9}
	dir := NewDirectory(all, []ids.ID{9})
	sv := NewSplitVoter(9, dir, wire.V(10), wire.V(20))
	h := newHarness(t, all[:4], sv)
	h.run(4) // inputs sent in round 3, delivered round 4
	halfA, halfB := dir.Halves()
	checkValue := func(id ids.ID, want float64) {
		for _, m := range h.sinks[id].received {
			if in, ok := m.Payload.(wire.Input); ok {
				if !in.X.Equal(wire.V(want)) {
					t.Fatalf("node %v got input %v, want %v", id, in.X, want)
				}
				return
			}
		}
		t.Fatalf("node %v received no input", id)
	}
	for _, id := range halfA {
		checkValue(id, 10)
	}
	for _, id := range halfB {
		checkValue(id, 20)
	}
}

func TestInputSplitterEveryRound(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 3, 4, 9}
	dir := NewDirectory(all, []ids.ID{9})
	sp := NewInputSplitter(9, dir, -5, 5)
	h := newHarness(t, all[:4], sp)
	h.run(4)
	halfA, halfB := dir.Halves()
	count := func(id ids.ID, want float64) int {
		n := 0
		for _, m := range h.sinks[id].received {
			if in, ok := m.Payload.(wire.Input); ok && in.X.Equal(wire.V(want)) {
				n++
			}
		}
		return n
	}
	if got := count(halfA[0], -5); got != 3 {
		t.Fatalf("half A received %d splitter inputs, want 3 (rounds 2..4)", got)
	}
	if got := count(halfB[0], 5); got != 3 {
		t.Fatalf("half B received %d splitter inputs, want 3", got)
	}
	if count(halfA[0], 5) != 0 || count(halfB[0], -5) != 0 {
		t.Fatal("splitter leaked the wrong value to a half")
	}
}

func TestRandomNoiseIsDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	all := []ids.ID{1, 2, 9}
	dir := NewDirectory(all, []ids.ID{9})
	collect := func(seed int64) []string {
		net := simnet.New(simnet.Config{MaxRounds: 100})
		s := &sink{id: 1}
		if err := net.Add(s); err != nil {
			t.Fatal(err)
		}
		if err := net.Add(&sink{id: 2}); err != nil {
			t.Fatal(err)
		}
		if err := net.AddByzantine(NewRandomNoise(9, dir, seed)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := net.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		var out []string
		for _, m := range s.received {
			out = append(out, string(wire.Encode(m.Payload)))
		}
		return out
	}
	a1, a2, b := collect(5), collect(5), collect(6)
	if len(a1) == 0 {
		t.Fatal("noise adversary sent nothing")
	}
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different volume: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	same := len(a1) == len(b)
	if same {
		for i := range a1 {
			if a1[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}
