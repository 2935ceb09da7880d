package rotor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// folder owns a rotor core the way consensus does: it counts against a
// frozen census, notes every inbox and folds every second round, so a
// window spans two inboxes. It records which path each fold took and
// what it sent and selected.
type folder struct {
	id    ids.ID
	core  *Core
	cen   census.Census
	ranks census.Ranks

	shared, windowed int // folds over the engine's counted list / over the census.Window
	log              []string
}

func (f *folder) ID() ids.ID { return f.id }
func (f *folder) Done() bool { return false }

func (f *folder) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		f.core.BroadcastInit(env)
		return
	case 2:
		f.core.EchoInits(&env.Inbox, env)
		return
	}
	f.core.NoteInbox(&env.Inbox, Count(&env.Inbox, f.cen.Members(), &f.ranks))
	if env.Round%2 == 1 {
		return
	}
	switch {
	case f.core.shared.Len() > 0 && f.core.echoes.Empty():
		f.shared++
	case !f.core.echoes.Empty():
		f.windowed++
	}
	sel := f.core.LoopRound(f.cen.N(), env)
	f.log = append(f.log, fmt.Sprintf("round %d: %+v C_v=%v sent %v", env.Round, sel, f.core.Candidates().Members(), env.Sent()))
}

// A round whose every link a drop rule scopes delivers every broadcast
// through the private segment, so the rotor folds it on the
// census.Window path instead of the engine's counted list — with the
// same result. Two runs of one fleet, one healthy and one under a rate-0
// drop rule that names nobody (so every link is scoped and rolled every
// round and nothing is lost), must send, select and admit the same,
// round by round; the healthy run must have folded its echoes on the
// shared path and the fault-live run on the window. The census also
// holds ghosts that never speak, so n_v exceeds the fleet.
func TestFaultLiveRoundTakesTheWindowFallback(t *testing.T) {
	t.Parallel()
	nodes := ids.Sparse(rand.New(rand.NewSource(3)), 12)
	ghosts := ids.Sparse(rand.New(rand.NewSource(4)), 5)
	run := func(live bool) []*folder {
		cfg := simnet.Config{}
		if live {
			cfg.FaultPlan = &simnet.FaultPlan{Seed: 1, Events: []simnet.FaultEvent{
				{Round: 1, Kind: simnet.FaultDrop, Rate: 0},
			}}
		}
		net := simnet.New(cfg)
		defer net.Close()
		members := census.Of(ids.NewSet(append(slices.Clone(nodes), ghosts...)...))
		fs := make([]*folder, len(nodes))
		for i, id := range nodes {
			core := NewCore(0)
			core.SetCycling(true)
			fs[i] = &folder{id: id, core: core, cen: members}
			if err := net.Add(fs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for round := 1; round <= 12; round++ {
			if err := net.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	healthy, live := run(false), run(true)
	for i := range healthy {
		h, l := healthy[i], live[i]
		if h.shared == 0 || h.windowed != 0 {
			t.Fatalf("%v healthy: %d shared folds and %d window folds, want only shared", h.id, h.shared, h.windowed)
		}
		if l.shared != 0 || l.windowed == 0 {
			t.Fatalf("%v fault-live: %d shared folds and %d window folds, want only window", l.id, l.shared, l.windowed)
		}
		if !slices.Equal(h.log, l.log) {
			t.Fatalf("%v: healthy\n%v\nfault-live\n%v", h.id, h.log, l.log)
		}
	}
	if got := healthy[0].core.Candidates().Len(); got != len(nodes) {
		t.Fatalf("C_v holds %d candidates after the run, want every node, %d", got, len(nodes))
	}
}

// The shared path holds only a window that is one round of the block: a
// private echo, or block echoes in a second round, spill the window onto
// the census.Window, and the fold counts the union. The senders below
// all name candidate 7: a third of the census through the block in the
// first inbox, a third more through the block of the second or through
// private messages, which together cross 2n_v/3.
func TestSharedEchoesSpillIntoTheWindow(t *testing.T) {
	t.Parallel()
	members := ids.Sparse(rand.New(rand.NewSource(6)), 9)
	frozen := census.Of(ids.NewSet(members...))
	echo := func(from ids.ID) simnet.Received {
		return simnet.Received{From: from, Payload: wire.IDEcho{Candidate: 7}}
	}
	var first, second []simnet.Received
	for _, from := range members[:3] {
		first = append(first, echo(from))
	}
	for _, from := range members[3:6] {
		second = append(second, echo(from))
	}
	for _, tc := range []struct {
		name  string
		inbox []simnet.Inbox
	}{
		{"private in the same inbox", []simnet.Inbox{simnet.InboxOfRound(first, second)}},
		{"private in a later inbox", []simnet.Inbox{simnet.InboxOfRound(first, nil), simnet.InboxOf(second...)}},
		{"private first", []simnet.Inbox{simnet.InboxOf(second...), simnet.InboxOfRound(first, nil)}},
		{"block in a later inbox", []simnet.Inbox{simnet.InboxOfRound(first, nil), simnet.InboxOfRound(second, nil)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			core := NewCore(0)
			for _, in := range tc.inbox {
				noteInbox(core, in, frozen.Members())
			}
			if core.shared.Len() != 0 {
				t.Fatalf("the window still holds %d shared echoes beside others", core.shared.Len())
			}
			var env simnet.RoundEnv
			core.LoopRound(frozen.N(), &env)
			if !core.Candidates().Contains(7) {
				t.Fatalf("6 of %d echoes did not admit the candidate: the fold lost some", frozen.N())
			}
			if sent := env.Sent(); len(sent) != 1 || sent[0] != (wire.IDEcho{Candidate: 7}) {
				t.Fatalf("the fold sent %v, want one echo of 7", sent)
			}
		})
	}
}
