package relbcast

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

// Differential test against Algorithm 1 as the paper states it
// (spec.RB): in all three delivery shapes, with and without a send quota
// smaller than a round's echoes, nodes counting through census.Window
// queue the spec's sends, round by round and in order — so under a quota
// the surviving prefix of every node's queue is the same — and accept
// the same pairs in the same rounds.
func TestWindowMatchesMapAndSortReference(t *testing.T) {
	t.Parallel()
	spec.ForRelBcast.Test(t, spec.Side{
		New: func(r spec.Role) simnet.Process {
			if r.Body != nil {
				return NewSource(r.ID, r.Body)
			}
			return NewRelay(r.ID)
		},
		Outcome: func(p simnet.Process) any { return p.(*Node).Accepted() },
	}, func(t *testing.T, nodes []simnet.Process) {
		accepts := 0
		for _, p := range nodes {
			accepts += len(p.(*spec.RB).Outcome().([]spec.Acceptance))
		}
		if accepts == 0 {
			t.Fatal("degenerate run: nothing was accepted")
		}
	})
}

// Emission order under a quota, spelled out: five sources, so every node
// owes five echoes in round 3, and under a SendQuota of 3 from that round
// on the three that survive are those of the three smallest source ids —
// the ascending (source, body) order the fold sends in.
func TestQuotaKeepsTheSmallestKeys(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	all := ids.Sparse(rng, 8)
	net := simnet.New(simnet.Config{MaxRounds: 10, FaultPlan: &simnet.FaultPlan{Events: []simnet.FaultEvent{
		{Round: 3, Kind: simnet.FaultQuota, SendQuota: 3},
	}}})
	defer net.Close()
	for i, id := range all[:7] {
		node := NewRelay(id)
		if i < 5 {
			node = NewSource(id, []byte("m"))
		}
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	tap := spec.NewTap(all[7])
	if err := net.AddByzantine(tap); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	sources := slices.Clone(all[:5])
	slices.Sort(sources)
	var want []string
	for _, from := range all[:7] {
		for _, src := range sources[:3] {
			want = append(want, fmt.Sprintf("%v %x", from, wire.Encode(wire.RBEcho{Source: src, Body: []byte("m")})))
		}
	}
	slices.Sort(want)
	if got := tap.Heard(4, nil); !slices.Equal(got, want) {
		t.Fatalf("round-3 echoes that survived the quota:\n%v\nwant\n%v", got, want)
	}
}
