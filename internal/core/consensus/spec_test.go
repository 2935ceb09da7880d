package consensus

import (
	"testing"

	"uba/internal/simnet"
	"uba/internal/spec"
)

// Whole runs against Algorithm 3 as the paper states it (spec.Consensus),
// in all three delivery shapes, with and without a send quota: the same
// sends queued round by round, the same phases and the same decision.
// The chatterers send ballots, markers and opinions of both values, so
// that some run goes past its first phase, adopts a coordinator's
// opinion and decides.
func TestNodeMatchesSpec(t *testing.T) {
	t.Parallel()
	spec.ForConsensus.Test(t, spec.Side{
		New: func(r spec.Role) simnet.Process { return New(r.ID, r.Vote()) },
		Outcome: func(p simnet.Process) any {
			x, ok := p.(*Node).Output()
			return []any{x, ok, p.(*Node).DecidedRound(), p.(*Node).History()}
		},
	}, spec.Somewhere(t, "went past its first phase, adopted a coordinator's opinion and decided", spec.PastFirstPhase))
}
