package ordering

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// doubleSubmitter is a Byzantine member that broadcasts two events for
// one round to everyone.
type doubleSubmitter struct {
	id    ids.ID
	round int
	a, b  float64
}

func (s *doubleSubmitter) ID() ids.ID { return s.id }
func (s *doubleSubmitter) Done() bool { return false }
func (s *doubleSubmitter) Step(env *simnet.RoundEnv) {
	if env.Round != s.round {
		return
	}
	for _, v := range []float64{s.a, s.b} {
		env.Broadcast(eventOf(uint64(env.Round), v))
	}
}

func eventOf(round uint64, v float64) wire.Event {
	return wire.Event{Round: round, Body: binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))}
}

// tap is a silent non-member that keeps every inbox it is delivered.
type tap struct {
	id     ids.ID
	rounds map[int][]simnet.Received
}

func (p *tap) ID() ids.ID { return p.id }
func (p *tap) Done() bool { return false }
func (p *tap) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		p.rounds[env.Round] = append(p.rounds[env.Round], m)
	}
}

// Which of an equivocating submitter's events becomes the input is a
// rule, not an accident of the sort: the intake arrives by sender, then
// encoding, and the last event of a submitter — the one with the greatest
// encoding — is the input. Seventeen members submit in one round (past the
// size up to which an unstable sort happens to be stable) and a Byzantine
// member broadcasts two bodies; every correct node opens that instance
// with the same input, on a healthy round and on a link-fault round alike.
func TestEquivocatedEventInputIsGreatestEncoding(t *testing.T) {
	t.Parallel()
	const submitRound = 3
	lo, hi := 1111.0, 2222.0
	if bytes.Compare(wire.Encode(eventOf(submitRound, lo)), wire.Encode(eventOf(submitRound, hi))) > 0 {
		lo, hi = hi, lo
	}
	plans := map[string]*simnet.FaultPlan{
		"healthy": nil,
		// One rule that never drops anything keeps the link filter live:
		// every broadcast arrives through the private segments.
		"link-fault": {Seed: 1, Events: []simnet.FaultEvent{{Round: 1, Kind: simnet.FaultDrop, Rate: 0}}},
	}
	for name, plan := range plans {
		for _, order := range [][2]float64{{lo, hi}, {hi, lo}} {
			all := ids.Sparse(rand.New(rand.NewSource(91)), 19)
			// The Byzantine submitter sits mid-range so that correct
			// events surround its two in the intake.
			byz, probe := all[9], all[18]
			var founders []ids.ID
			for _, id := range all[:18] {
				if id != byz {
					founders = append(founders, id)
				}
			}
			members := ids.NewSet(all[:18]...)
			net := simnet.New(simnet.Config{MaxRounds: 50, FaultPlan: plan})
			for i, id := range founders {
				node, err := NewFounder(id, members)
				if err != nil {
					t.Fatal(err)
				}
				// Queued so that every founder's event goes out in
				// submitRound.
				for r := 1; r <= submitRound; r++ {
					node.SubmitEvent(float64(100*r + i))
				}
				if err := net.Add(node); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.AddByzantine(&doubleSubmitter{id: byz, round: submitRound, a: order[0], b: order[1]}); err != nil {
				t.Fatal(err)
			}
			seen := &tap{id: probe, rounds: make(map[int][]simnet.Received)}
			if err := net.AddByzantine(seen); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < submitRound+2; r++ {
				if err := net.RunRound(); err != nil {
					t.Fatal(err)
				}
			}

			// The intake round: events by sender, a sender's by encoding.
			events := 0
			var prev simnet.Received
			for _, m := range seen.rounds[submitRound+1] {
				ev, ok := m.Payload.(wire.Event)
				if !ok {
					continue
				}
				if events > 0 {
					if m.From < prev.From || (m.From == prev.From && bytes.Compare(wire.Encode(ev), wire.Encode(prev.Payload)) <= 0) {
						t.Fatalf("%s: events out of (sender, encoding) order: %v then %v", name, prev, m)
					}
				}
				prev = m
				events++
			}
			if events != len(founders)+2 {
				t.Fatalf("%s: %d events delivered, want %d", name, events, len(founders)+2)
			}

			// The execution of that round opens with id:input; every
			// correct node vouches for the greater encoding.
			tag := instanceTag(submitRound+1, byz)
			inputs := 0
			for _, m := range seen.rounds[submitRound+2] {
				in, ok := m.Payload.(wire.Input)
				if !ok || in.Instance != tag {
					continue
				}
				if !in.X.Equal(wire.V(hi)) {
					t.Fatalf("%s, sent %v: node %v opened the instance with %v, want %v", name, order, m.From, in.X, hi)
				}
				inputs++
			}
			if inputs != len(founders) {
				t.Fatalf("%s: %d nodes opened the equivocated instance, want %d", name, inputs, len(founders))
			}
		}
	}
}
