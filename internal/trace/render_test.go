package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// TestRenderSeparatesDropRuleFromDrops runs three broadcasting nodes
// under a rate-1 drop rule on node 20's sends from round 2. The rule's
// activation event shares KindLinkDrop with the messages it drops, so
// the rendered round must show the rule on its own line and count only
// the three dropped messages.
func TestRenderSeparatesDropRuleFromDrops(t *testing.T) {
	t.Parallel()
	log := trace.NewEventLog(0)
	net := simnet.New(simnet.Config{
		MaxRounds: 5,
		EventLog:  log,
		FaultPlan: &simnet.FaultPlan{
			Seed:   1,
			Events: []simnet.FaultEvent{{Round: 2, Kind: simnet.FaultDrop, From: 20, Rate: 1}},
		},
	})
	for _, id := range []ids.ID{10, 20, 30} {
		if err := net.Add(&simnet.ChatterProcess{Ident: id}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 2; r++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := log.Render(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	_, round2, ok := strings.Cut(out, "--- round 2 ---\n")
	if !ok {
		t.Fatalf("no round 2 in transcript:\n%s", out)
	}
	for _, want := range []string{
		"  !! drop rule from=20 to=0 rate=1\n",
		"  20 ~x~ link-drop          x3 ",
	} {
		if !strings.Contains(round2, want) {
			t.Errorf("round 2 missing %q:\n%s", want, round2)
		}
	}
}
