package trb

import (
	"testing"

	"uba/internal/simnet"
	"uba/internal/spec"
)

// Whole runs against terminating reliable broadcast as the paper states
// it (spec.TRB) under a Byzantine source that sends two bodies, in all
// three delivery shapes, with and without a send quota: the same sends
// queued round by round, the same phases of Algorithm 3 and the same
// delivery, so that some run goes past its first phase, adopts a
// coordinator's opinion and decides.
func TestNodeMatchesSpec(t *testing.T) {
	t.Parallel()
	spec.ForTRB.Test(t, spec.Side{
		New: func(r spec.Role) simnet.Process { return New(r.ID, r.Source) },
		Outcome: func(p simnet.Process) any {
			n := p.(*Node)
			body, delivered, ok := n.Output()
			x, decided := n.con.Output()
			return []any{string(body), delivered, ok, []any{x, decided, n.con.DecidedRound(), n.con.History()}}
		},
	}, spec.Somewhere(t, "went past its first phase, adopted a coordinator's opinion and decided", spec.PastFirstPhase))
}
