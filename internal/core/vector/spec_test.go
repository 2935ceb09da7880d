package vector

import (
	"testing"

	"uba/internal/simnet"
	"uba/internal/spec"
)

// Whole runs against interactive consistency as the paper states it
// (spec.Vector), in all three delivery shapes, with and without a send
// quota: the same sends queued round by round and the same vector. The
// chatterers contribute two values, NaN and malformed events and send
// ballots on a correct node's slot and a chatterer's, so that some run
// joins a slot by first contact, ignores one, and outputs a pair.
func TestNodesMatchSpec(t *testing.T) {
	t.Parallel()
	spec.ForVector.Test(t, spec.Side{
		New:     func(r spec.Role) simnet.Process { return New(r.ID, r.Input) },
		Outcome: func(p simnet.Process) any { return p.(*Node).Vector() },
	}, spec.Somewhere(t, "joined a slot by first contact, ignored one and output a pair", spec.Contacted))
}
