package chaos

import (
	"math/rand"
	"strings"

	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/simnet"
)

// This file scopes the fault-injection layer (simnet.FaultPlan) to the
// chaos campaign: a generator that schedules faults *within the
// adversary model* — so a clean protocol must stay clean under them —
// and the degradation policy deciding which oracles tolerate disrupted
// rounds.
//
// Model discipline: the generated plans isolate, silence, and crash
// only Byzantine nodes. A Byzantine node that loses messages, goes
// quiet, or dies is just a particular Byzantine behavior, so every
// safety AND liveness property proved against f Byzantine failures
// must survive these plans — which is exactly what the metamorphic
// soak test asserts. Duplicate, corrupt, and reorder faults are
// deliberately NOT generated: they violate the engine's delivery model
// (per-round dedup, deterministic inbox order) that the protocol
// proofs assume, so a violation under them would indict the test, not
// the protocol.

// degradeRecovery is how many quiet rounds a disrupted network gets
// before liveness oracles resume counting (see oracle.NewDegraded).
const degradeRecovery = 6

// degradeLiveness wraps the liveness- and progress-flavored oracles of
// a suite for graceful degradation under a fault plan; safety oracles
// are returned untouched (nil keeps the original).
func degradeLiveness(o oracle.Oracle) oracle.Oracle {
	name := o.Name()
	if strings.HasSuffix(name, "-termination") || strings.HasSuffix(name, "-totality") {
		return oracle.NewDegraded(o, degradeRecovery)
	}
	return nil
}

// PlanFaults builds the campaign's Byzantine-scoped fault plan for a
// scenario: partition/heal cycles that quarantine the Byzantine
// coalition, loss on the coalition's links, and crash/recover churn of
// coalition members. The plan is a deterministic function of the
// scenario's seed and shape (the node layout is recomputed exactly as
// Run derives it), so a campaign cell's plan replays bit-for-bit from
// its repro. Returns nil when the scenario has no Byzantine slots —
// there is nothing in-model to disrupt.
func PlanFaults(s Scenario) *simnet.FaultPlan {
	if len(s.Slots) == 0 || s.MaxRounds < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(s.Seed*7919 + int64(s.Arena)))
	all := ids.Sparse(rand.New(rand.NewSource(s.Seed)), s.Correct+len(s.Slots))
	correct := rawIDs(all[:s.Correct])
	byz := rawIDs(all[s.Correct:])

	// Partition/heal cycles: quarantine the coalition for `width` rounds
	// out of every `period`, starting at round 2. Every cycle's partition
	// shares one Groups value, which the network reads in place.
	period := 8 + rng.Intn(5)
	width := 2 + rng.Intn(3)
	cycles := (s.MaxRounds-2)/period + 1
	plan := &simnet.FaultPlan{
		Seed:   s.Seed*31 + int64(s.Arena),
		Events: make([]simnet.FaultEvent, 0, 2*cycles+len(byz)+2),
	}
	add := func(e simnet.FaultEvent) {
		if e.Round >= 1 && e.Round <= s.MaxRounds {
			plan.Events = append(plan.Events, e)
		}
	}
	quarantine := [][]uint64{correct, byz}
	for start := 2; start <= s.MaxRounds; start += period {
		add(simnet.FaultEvent{Round: start, Kind: simnet.FaultPartition, Groups: quarantine})
		add(simnet.FaultEvent{Round: start + width, Kind: simnet.FaultHeal})
	}
	// Loss on the coalition's links (either direction): a Byzantine
	// node whose messages are lost is just a quieter Byzantine node.
	for _, b := range byz {
		add(simnet.FaultEvent{
			Round: 3 + rng.Intn(3),
			Kind:  simnet.FaultDrop,
			Node:  b,
			Rate:  0.2 + 0.6*rng.Float64(),
		})
	}
	// Crash/recover churn of one coalition member.
	victim := byz[rng.Intn(len(byz))]
	crash := 4 + rng.Intn(4)
	add(simnet.FaultEvent{Round: crash, Kind: simnet.FaultCrash, Node: victim})
	add(simnet.FaultEvent{Round: crash + 3 + rng.Intn(4), Kind: simnet.FaultRecover, Node: victim})
	return plan
}

// rawIDs converts an id slice to the raw uint64 form fault plans use.
func rawIDs(in []ids.ID) []uint64 {
	out := make([]uint64, len(in))
	for i, id := range in {
		out[i] = uint64(id)
	}
	return out
}
