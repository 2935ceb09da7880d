package spec_test

import (
	"testing"

	"uba/internal/adversary"
	"uba/internal/baseline"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// TestOtherStepsKeepNoRoundScratch makes the retention check on the
// Steps that no spec differential runs: every Byzantine node of
// internal/adversary, beside the spec's consensus nodes, and the
// internal/baseline comparators, on fleets of their own. Every process
// is wrapped in the check.
func TestOtherStepsKeepNoRoundScratch(t *testing.T) {
	const g, f, rounds = 7, 2, 40
	cfg := simnet.Config{MaxRounds: 100}
	checked := func(byz spec.Byzantine) spec.Byzantine {
		return func(ids []ids.ID, dir *adversary.Directory) []simnet.Process {
			ps := byz(ids, dir)
			for i, p := range ps {
				ps[i] = spec.Checked(t, p)
			}
			return ps
		}
	}
	adversaries := map[string]func(id ids.ID, dir *adversary.Directory) simnet.Process{
		"Silent": func(id ids.ID, _ *adversary.Directory) simnet.Process { return adversary.NewSilent(id) },
		"Crash": func(id ids.ID, _ *adversary.Directory) simnet.Process {
			return adversary.NewCrash(spec.NewConsensus(id, wire.V(1)), 10)
		},
		"RBEquivocator": func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewRBEquivocator(id, dir, id, []byte("A"), []byte("B"))
		},
		"EchoAmplifier": func(id ids.ID, _ *adversary.Directory) simnet.Process {
			return adversary.NewEchoAmplifier(id, 77, []byte("forged"))
		},
		"GhostCandidate": func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewGhostCandidate(id, dir, []ids.ID{11, 22})
		},
		"SplitVoter": func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewSplitVoter(id, dir, wire.V(0), wire.V(1))
		},
		"InputSplitter": func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewInputSplitter(id, dir, -5, 5)
		},
		"RandomNoise": func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewRandomNoise(id, dir, int64(id))
		},
		"Impersonator": func(id ids.ID, _ *adversary.Directory) simnet.Process {
			return adversary.NewImpersonator(id, wire.V(666), []uint64{0, 7})
		},
		"TerminateSpoofer": func(id ids.ID, _ *adversary.Directory) simnet.Process { return adversary.NewTerminateSpoofer(id) },
		"MembershipChurner": func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewMembershipChurner(id, dir)
		},
	}
	for name, mk := range adversaries {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec.NewFleet(t, 3, g, f, cfg, func(i int, id ids.ID) simnet.Process {
				return spec.Checked(t, spec.NewConsensus(id, wire.V(float64(i%2))))
			}, checked(spec.Each(mk))).RunFor(rounds)
		})
	}
	baselines := map[string]func(i int, id ids.ID) simnet.Process{
		"STBroadcast": func(i int, id ids.ID) simnet.Process {
			if i == 0 {
				return baseline.NewSTSource(id, f, []byte("m"))
			}
			return baseline.NewSTRelay(id, f)
		},
		"KingConsensus": func(i int, id ids.ID) simnet.Process { return baseline.NewKing(id, g+f, f, wire.V(float64(i%2))) },
		"ApproxAgreement": func(i int, id ids.ID) simnet.Process {
			return baseline.NewApprox(id, f, float64(10*i))
		},
		"Rotor": func(i int, id ids.ID) simnet.Process { return baseline.NewRotor(id, f, wire.V(float64(i))) },
	}
	for name, mk := range baselines {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec.NewFleet(t, 3, g, f, cfg, func(i int, id ids.ID) simnet.Process {
				return spec.Checked(t, mk(i, id))
			}, checked(spec.Silent)).RunFor(rounds)
		})
	}
}
