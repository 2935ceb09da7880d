package exp

import "uba"

// E20MessageComplexity quantifies the Discussion-section claim that
// "other metrics such as message complexity ... do not change much
// either": total delivered messages and bytes for a complete id-only
// consensus vs the known-(n, f) king baseline, across n. Both are
// O(n²)-messages-per-round protocols run for O(f) rounds, i.e. O(n³)
// total at f = Θ(n); the table normalizes totals by n² ("broadcast
// rounds of work") and checks the two protocols stay within a small
// constant factor. Where the traffic goes differs instructively: the
// id-only protocol pays an up-front n²-per-node candidate-dissemination
// burst (every node reliable-broadcasts every identifier it heard) and
// wins it back through early termination; the king spreads its traffic
// evenly over its mandatory 4(f+1) rounds.
func E20MessageComplexity(quick bool) (*Outcome, error) {
	faults := []int{1, 2, 4, 8}
	if quick {
		faults = []int{1, 2}
	}
	table := Table{
		Title:   "E20: consensus traffic, id-only vs king (split inputs, silent Byzantine)",
		Columns: []string{"n", "f", "id-only total msgs", "king total msgs", "ratio", "id-only msgs/n²", "king msgs/n²"},
	}
	pass := true
	for _, f := range faults {
		g := 2*f + 1
		n := g + f
		idRes, err := uba.Consensus(uba.Config{
			Correct: g, Byzantine: f, Seed: int64(f),
		}, splitInputs(g))
		if err != nil {
			return nil, err
		}
		n2 := float64(n) * float64(n)
		idTotal := float64(idRes.Report.Deliveries)
		idWork := idTotal / n2

		kingReport, _, err := runKingBaseline(n, f, splitInputs(g))
		if err != nil {
			return nil, err
		}
		kingTotal := float64(kingReport.Deliveries)
		kingWork := kingTotal / n2

		ratio := 0.0
		if kingTotal > 0 {
			ratio = idTotal / kingTotal
		}
		// "Does not change much": totals within a small constant factor
		// of each other at every size.
		if ratio > 4 || ratio < 0.25 {
			pass = false
		}
		table.AddRow(n, f, int(idTotal), int(kingTotal), ratio, idWork, kingWork)
	}
	return &Outcome{
		ID:       "E20",
		Name:     "message complexity vs king baseline",
		Claim:    "message complexity does not change much when n and f are unknown (Discussion)",
		Measured: "whole-run delivery totals stay within a small constant factor at every size; the id-only candidate-dissemination burst is repaid by early termination",
		Pass:     pass,
		Tables:   []Table{table},
	}, nil
}
