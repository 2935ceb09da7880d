package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"uba/internal/oracle"
	"uba/internal/simnet"
)

// Repro is a self-contained, replayable description of an oracle
// violation: the minimal scenario the shrinker reached, the violation it
// produces, and the original scenario it was shrunk from. Serialized as
// JSON by campaigns and replayed by `ubasim -repro`.
type Repro struct {
	// Scenario is the minimized violating configuration.
	Scenario Scenario `json:"scenario"`
	// Violation is the oracle verdict the scenario reproduces.
	Violation oracle.Violation `json:"violation"`
	// ShrunkFrom is the originally observed violating scenario.
	ShrunkFrom Scenario `json:"shrunk_from"`
	// ShrinkRuns is how many candidate runs the shrinker spent.
	ShrinkRuns int `json:"shrink_runs"`
}

// EncodeRepro serializes a repro as indented JSON (stable field order,
// trailing newline) for artifact files.
func EncodeRepro(r Repro) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeRepro parses and validates a repro file. Structurally invalid
// repros — truncated files, zero-value {} documents, unknown arenas,
// malformed fault plans — are rejected with a diagnostic instead of
// being replayed as a meaningless empty run. So are unknown fields and
// trailing data: a misspelled or stale field would otherwise decode as
// its zero value and replay a different scenario.
func DecodeRepro(data []byte) (Repro, error) {
	var r Repro
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Repro{}, fmt.Errorf("chaos: bad repro file: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Repro{}, errors.New("chaos: bad repro file: trailing data after the repro object")
	}
	if err := r.Validate(); err != nil {
		return Repro{}, err
	}
	return r, nil
}

// Validate checks a repro is structurally replayable.
func (r *Repro) Validate() error {
	if r.Violation.Oracle == "" {
		return fmt.Errorf("chaos: repro names no violation oracle (empty or truncated repro file?)")
	}
	if err := validateScenario(&r.Scenario); err != nil {
		return fmt.Errorf("chaos: invalid repro scenario: %w", err)
	}
	return nil
}

// validateScenario checks a scenario's structural invariants. Run and
// Repro.Validate both call it, so a hand-built scenario and a decoded
// repro are rejected by one rule set, before any round runs.
func validateScenario(s *Scenario) error {
	if s.Arena < ArenaBroadcast || s.Arena > ArenaOrdering {
		return fmt.Errorf("unknown arena %d", int(s.Arena))
	}
	if s.Correct < 1 {
		return fmt.Errorf("needs at least one correct node, got %d", s.Correct)
	}
	if s.MaxRounds < 1 {
		return fmt.Errorf("needs MaxRounds >= 1, got %d", s.MaxRounds)
	}
	for i, slot := range s.Slots {
		if !slices.Contains(strategies, slot.Strategy) {
			return fmt.Errorf("slot %d: unknown strategy %q", i, slot.Strategy)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Replay re-runs the minimized scenario and reports whether the recorded
// oracle fires again (it must: scenarios are deterministic).
func (r Repro) Replay() (*Outcome, error) {
	out, err := Run(r.Scenario)
	if err != nil {
		return nil, err
	}
	if _, ok := out.Fired(r.Violation.Oracle); !ok {
		return out, fmt.Errorf("chaos: replay did not reproduce oracle %q", r.Violation.Oracle)
	}
	return out, nil
}

// Shrink delta-debugs a violating scenario to a smaller one that still
// fires the same oracle. It is a greedy fixpoint over six reduction
// passes — drop Byzantine slots, simplify surviving slots to silence,
// shrink the number of correct nodes, shrink the round budget to the
// violation round, drop fault-plan events, simplify surviving fault
// events (rates to zero, partitions collapsed, heals pulled earlier) —
// re-running the scenario after each candidate edit (determinism makes
// a single re-run a proof; fault rolls are stateless hashes, so
// removing one fault event never re-rolls the others). budget caps the
// total number of candidate runs; the initial confirmation run also
// counts.
//
// The returned Repro always reproduces: if the initial run does not fire
// the named oracle (or budget is exhausted before confirmation), Shrink
// returns ok=false.
func Shrink(s Scenario, oracleName string, budget int) (Repro, bool) {
	runs := 0
	try := func(cand Scenario) (oracle.Violation, bool) {
		if runs >= budget {
			return oracle.Violation{}, false
		}
		runs++
		out, err := Run(cand)
		if err != nil {
			return oracle.Violation{}, false
		}
		return out.Fired(oracleName)
	}

	best, ok := try(s)
	if !ok {
		return Repro{}, false
	}
	cur := s
	for changed := true; changed && runs < budget; {
		changed = false
		// Pass 1: drop slots one at a time.
		for i := 0; i < len(cur.Slots); {
			cand := cur
			cand.Slots = append(append([]SlotSpec(nil), cur.Slots[:i]...), cur.Slots[i+1:]...)
			if v, ok := try(cand); ok {
				cur, best, changed = cand, v, true
			} else {
				i++
			}
		}
		// Pass 2: simplify surviving slots to the weakest strategy.
		for i := range cur.Slots {
			if cur.Slots[i].Strategy == StrategySilent {
				continue
			}
			cand := cur
			cand.Slots = append([]SlotSpec(nil), cur.Slots...)
			cand.Slots[i] = SlotSpec{Strategy: StrategySilent}
			if v, ok := try(cand); ok {
				cur, best, changed = cand, v, true
			}
		}
		// Pass 3: shrink the correct population.
		for cur.Correct > 1 {
			cand := cur
			cand.Correct--
			v, ok := try(cand)
			if !ok {
				break
			}
			cur, best, changed = cand, v, true
		}
		// Pass 4: shrink the round budget to the violation round.
		if best.Round < cur.MaxRounds {
			cand := cur
			cand.MaxRounds = best.Round
			if v, ok := try(cand); ok {
				cur, best, changed = cand, v, true
			}
		}
		// Pass 5: drop fault-plan events one at a time; an emptied plan
		// becomes no plan at all.
		for i := 0; cur.Faults != nil && i < len(cur.Faults.Events); {
			cand := cur
			cand.Faults = cur.Faults.Clone()
			cand.Faults.Events = slices.Delete(cand.Faults.Events, i, i+1)
			if len(cand.Faults.Events) == 0 {
				cand.Faults = nil
			}
			if v, ok := try(cand); ok {
				cur, best, changed = cand, v, true
			} else {
				i++
			}
		}
		// Pass 6: simplify surviving fault events — zero a drop rule,
		// collapse a partition to one group, pull a heal earlier.
		for i := 0; cur.Faults != nil && i < len(cur.Faults.Events); i++ {
			switch e := cur.Faults.Events[i]; e.Kind {
			case simnet.FaultDrop:
				if e.Rate == 0 {
					continue
				}
				cand := editFault(cur, i, func(ev *simnet.FaultEvent) { ev.Rate = 0 })
				if v, ok := try(cand); ok {
					cur, best, changed = cand, v, true
				}
			case simnet.FaultPartition:
				if len(e.Groups) < 2 {
					continue
				}
				cand := editFault(cur, i, func(ev *simnet.FaultEvent) {
					merged := []uint64{}
					for _, g := range ev.Groups {
						merged = append(merged, g...)
					}
					ev.Groups = [][]uint64{merged}
				})
				if v, ok := try(cand); ok {
					cur, best, changed = cand, v, true
				}
			case simnet.FaultHeal:
				for cur.Faults.Events[i].Round > 1 {
					cand := editFault(cur, i, func(ev *simnet.FaultEvent) { ev.Round-- })
					v, ok := try(cand)
					if !ok {
						break
					}
					cur, best, changed = cand, v, true
				}
			}
		}
	}
	return Repro{Scenario: cur, Violation: best, ShrunkFrom: s, ShrinkRuns: runs}, true
}

// editFault returns a candidate scenario with one fault event edited on
// a deep-copied plan (the original stays untouched for later passes).
func editFault(s Scenario, i int, edit func(*simnet.FaultEvent)) Scenario {
	cand := s
	cand.Faults = s.Faults.Clone()
	edit(&cand.Faults.Events[i])
	return cand
}
