package parallelcon

import (
	"testing"

	"uba/internal/simnet"
	"uba/internal/spec"
)

// Whole runs against Algorithm 5 as the paper states it
// (spec.ParallelConsensus), in all three delivery shapes, with and
// without a send quota: the same sends queued round by round, the same
// instances decided in the same rounds and the same output pairs. The
// chatterers name instances no node holds, so that some run joins one by
// first contact, ignores one, and outputs a pair.
func TestNodesMatchSpec(t *testing.T) {
	t.Parallel()
	spec.ForParallelConsensus.Test(t, spec.Side{
		New: func(r spec.Role) simnet.Process {
			var inputs []InputPair
			for _, p := range r.Pairs() {
				inputs = append(inputs, InputPair(p))
			}
			return New(r.ID, inputs, Options{})
		},
		Outcome: func(p simnet.Process) any {
			n := p.(*Node)
			var joined [][2]uint64
			for _, ins := range n.order {
				joined = append(joined, [2]uint64{ins.id, uint64(ins.decRound)})
			}
			return []any{joined, n.Outputs(), n.Phases()}
		},
	}, spec.Somewhere(t, "joined an instance by first contact, ignored one and output a pair", spec.Contacted))
}
