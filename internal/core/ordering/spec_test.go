package ordering

import (
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
)

// Whole runs against Algorithm 6 as the paper states it (spec.Ordering),
// in all three delivery shapes, with and without a send quota: the same
// sends queued round by round, and the same chain, finality, round,
// membership and Done at the end. A node joins, a founder leaves, and the
// chatterers say present and absent, send events, and name executions'
// instances and rotor tags, so that some run finalizes a chain entry,
// builds a quiet execution late, changes S, admits the joiner, ends a
// leaver, admits a chatterer by its present and finalizes a chatterer's
// event.
func TestNodeMatchesSpec(t *testing.T) {
	t.Parallel()
	var checks []func(*testing.T, []simnet.Process)
	for what, shows := range spec.ChurnShown {
		checks = append(checks, spec.Somewhere(t, what, shows))
	}
	spec.ForOrdering.Test(t, spec.Side{
		New: func(r spec.Role) simnet.Process {
			n, err := NewJoiner(r.ID)
			if slices.Contains(r.Founders, r.ID) {
				n, err = NewFounder(r.ID, ids.NewSet(r.Founders...))
			}
			if err != nil {
				t.Fatal(err)
			}
			return r.Churned(n)
		},
		Outcome: func(p simnet.Process) any {
			n := p.(*spec.Churned).Orderer.(*Node)
			var chain []spec.Entry
			for _, e := range n.Chain() {
				chain = append(chain, spec.Entry(e))
			}
			return []any{chain, n.FinalizedThrough(), n.Round(), n.Members().Members(), n.Done()}
		},
	}, func(t *testing.T, nodes []simnet.Process) {
		for _, check := range checks {
			check(t, nodes)
		}
	})
}
