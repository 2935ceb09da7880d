package renaming

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// Differential test against the appendix algorithm as the paper states
// it (spec.Renaming): in all three delivery shapes, with and without a
// send quota smaller than a round's echoes, nodes folding S on a
// rotor.Core and terminate(k) on a census.Window queue the spec's sends,
// round by round and in order — so
// under a quota the surviving prefix of every node's queue (identifier
// echoes, then the node's own terminate, then terminate relays, each
// ascending) is the same — and end with the same set in the same round.
func TestWindowsMatchMapAndSortReference(t *testing.T) {
	t.Parallel()
	spec.ForRenaming.Test(t, spec.Side{
		New: func(r spec.Role) simnet.Process { return New(r.ID) },
		Outcome: func(p simnet.Process) any {
			return []any{p.(*Node).FinalSetView().Members(), p.(*Node).termRound}
		},
	}, nil)
}

// Emission order under a quota, spelled out. Four Byzantine nodes of
// eleven echo five ghosts and spoof terminate(1) and terminate(2) every
// round: each ghost and each spoof sits at 4 ≥ n_v/3 senders, and the
// seven correct ids at 7 < 2n_v/3, so in round 3 every correct node owes
// twelve identifier echoes and two terminate relays. Under a SendQuota of
// 13 from that round on, what survives is the twelve echoes and the
// smaller terminate: identifier echoes go out before terminate relays,
// each in ascending key order.
func TestQuotaKeepsEchoesBeforeTerminates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	all := ids.Sparse(rng, 12)
	nodes, byz, tapID := all[:7], all[7:11], all[11]
	net := simnet.New(simnet.Config{MaxRounds: 10, FaultPlan: &simnet.FaultPlan{Events: []simnet.FaultEvent{
		{Round: 3, Kind: simnet.FaultQuota, SendQuota: 13},
	}}})
	defer net.Close()
	for _, id := range nodes {
		if err := net.Add(New(id)); err != nil {
			t.Fatal(err)
		}
	}
	pool := []wire.Payload{wire.Terminate{Round: 2}, wire.Terminate{Round: 1}}
	for _, ghost := range []ids.ID{55, 11, 44, 22, 33} {
		pool = append(pool, wire.IDEcho{Candidate: ghost})
	}
	for _, id := range byz {
		if err := net.AddByzantine(&spammer{id: id, pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	tap := spec.NewTap(tapID)
	if err := net.AddByzantine(tap); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, from := range nodes {
		for _, p := range append([]ids.ID{11, 22, 33, 44, 55}, nodes...) {
			want = append(want, fmt.Sprintf("%v %x", from, wire.Encode(wire.IDEcho{Candidate: p})))
		}
		want = append(want, fmt.Sprintf("%v %x", from, wire.Encode(wire.Terminate{Round: 1})))
	}
	slices.Sort(want)
	if got := tap.Heard(4, nodes); !slices.Equal(got, want) {
		t.Fatalf("round-3 sends that survived the quota:\n%v\nwant\n%v", got, want)
	}
}

// spammer broadcasts its whole pool every round.
type spammer struct {
	id   ids.ID
	pool []wire.Payload
}

func (s *spammer) ID() ids.ID { return s.id }
func (s *spammer) Done() bool { return false }
func (s *spammer) Step(env *simnet.RoundEnv) {
	for _, p := range s.pool {
		env.Broadcast(p)
	}
}
