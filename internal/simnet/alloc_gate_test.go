package simnet

import (
	"fmt"
	"math/rand"
	"testing"

	"uba/internal/allocgate"
	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// discardObserver is the observer=on variants' observer: it takes the
// round record and drops it.
type discardObserver struct{}

func (discardObserver) ObserveRound(int, []trace.Event) {}

// statsObserver is the observer=stats variants' observer: like an oracle
// suite whose oracles read only the round's accounting, it takes the
// ledger and declines the message events.
type statsObserver struct{ discardObserver }

func (statsObserver) ReadsMessages() bool                    { return false }
func (statsObserver) ObserveRoundStats(int, RoundAccounting) {}

// TestRouteHotPathZeroAlloc is the allocation contract of the round
// hot path: after the warm-up rounds that grow the recycled arenas to
// their high-water mark, a steady-state
// finishRound — the tail of RunRound, account + route + observe — must
// perform zero heap allocations per round, at a worker cap of 1 and of
// 3 (the pass is serial under both: a cap must not bring the scheduler,
// or an allocation, into it), across three network sizes. The step
// dispatch has its own gate, TestSteadyStateDispatchDoesNotAllocate
// (internal/simnet/sched).
//
// The plan=idle variants re-certify the same bound with a fault plan
// attached but never live: plan presence routes through the
// fault-aware branches (scratch resets, the keyed delivery copy), and
// those must be as allocation-free as the nil-plan path — attaching a
// FaultPlan may never cost a healthy round an allocation.
//
// The plan=partition and plan=drop variants certify a warm link-fault
// round. Under plan=partition the nodes sit in two groups, and each
// group's members read a block of their group's broadcasts with its own
// index; under plan=drop a rule names one node, whose broadcasts are
// rolled link by link into the private segments and which reads
// everything privately, while the others share the block. Their rounds
// vary in shape (the drops differ round to round), so they warm for
// 100 rounds, until the buffers sized by the drops have met their
// largest round; then neither the grouped blocks nor the rolls allocate.
//
// The observer=on variants certify an observed round: the round record
// — one message event per stored message, n for this fixture's n²
// deliveries — is built in recycled scratch and handed to a discarding
// observer, so observation costs a steady-state round no allocation
// either.
//
// The observer=stats variants certify an observed round whose observer
// reads no message event (MessageReader): the round record holds the
// engine events alone — none, on this fault-free fixture — and the
// observer gets the round's accounting instead, also without an
// allocation.
//
// The reader=said variants certify a round that is read payload-major:
// after the route one receiver asks for Inbox.Said, so the measured body
// also builds the block's index — sender list, group headers, slab —
// and that build, too, runs in recycled scratch. The other variants
// never ask, and their rounds never build it.
//
// The measured body is RouteOnly minus the Collector flush: AddRound
// appends one RoundStats to the report's per-round ledger every round,
// which is genuinely amortized O(1) allocation — the ledger is a
// product of the run, not round scratch — and is deliberately outside
// the zero-alloc contract.
func TestRouteHotPathZeroAlloc(t *testing.T) {
	for _, variant := range []struct {
		label string
		cfg   Config
	}{
		{"plan=nil", Config{}},
		{"plan=idle", Config{FaultPlan: &FaultPlan{Seed: 1}}},
		{"plan=partition", Config{}},
		{"plan=drop", Config{}},
		{"observer=on", Config{Observer: discardObserver{}}},
		{"observer=stats", Config{Observer: statsObserver{}}},
		{"reader=said", Config{}},
	} {
		label := variant.label
		for _, workers := range []int{1, 3} {
			for _, n := range []int{256, 1024, 4096} {
				t.Run(fmt.Sprintf("%s/workers=%d/n=%d", label, workers, n), func(t *testing.T) {
					cfg := variant.cfg
					cfg.Workers = workers
					nodes := ids.Sparse(rand.New(rand.NewSource(1)), n) // the fixture's ids
					raw := make([]uint64, n)
					for i, id := range nodes {
						raw[i] = uint64(id)
					}
					switch label {
					case "plan=partition":
						cfg.FaultPlan = &FaultPlan{Seed: 1, Events: []FaultEvent{
							{Round: 1, Kind: FaultPartition, Groups: [][]uint64{raw[:n/2], raw[n/2:]}},
						}}
					case "plan=drop":
						cfg.FaultPlan = &FaultPlan{Seed: 1, Events: []FaultEvent{
							{Round: 1, Kind: FaultDrop, Node: raw[n/3], Rate: 0.5},
						}}
					}
					rp, err := NewRoundPhases(n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer rp.Close()
					rp.net.forceWorkers(workers)
					built := rp.net.index.builds // a recycled index has a past
					said := 0
					var acct RoundAccounting
					round := func() {
						acct = rp.net.finishRound(rp.nextSends())
						if label == "reader=said" {
							in := rp.Inbox()
							said = len(in.Said())
						}
					}
					// Warm-up: grow the broadcast block, unicast arena, done
					// mask and round record to their steady-state sizes.
					warm := 3
					if cfg.FaultPlan != nil && len(cfg.FaultPlan.Events) > 0 {
						warm = 100
					}
					for i := 0; i < warm; i++ {
						round()
					}
					allocs := allocgate.Count(100, round)
					deliveries := int64(n) * int64(n)
					switch label {
					case "plan=partition":
						deliveries /= 2
					case "plan=drop": // about half of the named node's 2n - 1 links drop
						deliveries -= int64(len(rp.net.roundEvents))
						if drops := len(rp.net.roundEvents); drops < n/2 || drops > 3*n/2 {
							t.Fatalf("the rule dropped %d of the named node's 2n - 1 = %d links", drops, 2*n-1)
						}
						if len(rp.net.blocks) != 1 || rp.net.blocks[0].hi != int32(n-1) {
							t.Fatalf("the shared block holds %d broadcasts, want every unnamed node's n - 1", rp.net.blocks[0].hi)
						}
					}
					if acct.Deliveries != deliveries || acct.Broadcasts != int64(n) {
						t.Fatalf("fixture routed %d deliveries / %d broadcasts per round, want %d / n = %d",
							acct.Deliveries, acct.Broadcasts, deliveries, n)
					}
					if label == "plan=partition" && len(rp.net.blocks) != 2 {
						t.Fatalf("a partitioned round laid out %d blocks, want one per group", len(rp.net.blocks))
					}
					// Nothing is recorded for a round nobody observes, nor
					// for an observer that reads no message event; a link
					// drop is an engine event.
					record := 0
					if label == "observer=on" {
						record = n
					}
					if label != "plan=drop" && len(rp.net.roundEvents) != record {
						t.Fatalf("round record holds %d events, want %d", len(rp.net.roundEvents), record)
					}
					builds := 0 // warm-up rounds, one for Count's own, 100 measured
					if label == "reader=said" {
						builds = warm + 1 + 100
						if said != 1 {
							t.Fatalf("reader saw %d distinct payloads in a round of one", said)
						}
					}
					if got := rp.net.index.builds - built; got != builds {
						t.Fatalf("index built %d times, want %d", got, builds)
					}
					if allocs != 0 {
						t.Errorf("steady-state route at n=%d (workers=%d, %s) allocated %d times over 100 rounds, want 0", n, workers, label, allocs)
					}
				})
			}
		}
	}
}

// sayer broadcasts k payloads a round, values [0, k) when even and
// [1, k] when odd, and all k + 1 when extra is set. In round 1 only
// the lead speaks, and says all k + 1, so its own send buffers have room
// for its extra round.
type sayer struct {
	id               ids.ID
	k                int
	odd, lead, extra bool
}

func (s *sayer) ID() ids.ID { return s.id }
func (s *sayer) Done() bool { return false }
func (s *sayer) Step(env *RoundEnv) {
	if env.Round == 1 && !s.lead {
		return
	}
	skip := s.k // the one value of [0, k] it leaves out
	if s.odd {
		skip = 0
	}
	for x := 0; x <= s.k; x++ {
		if x != skip || s.extra || env.Round == 1 {
			env.Broadcast(wire.Input{X: wire.V(float64(x))})
		}
	}
}

// A round that broadcasts once more than any round before it reuses the
// broadcast block and its ranks: they are sized from the capacity of
// the round's broadcast index list, which append grows geometrically,
// not to the exact count, which would reallocate them at every new
// maximum — a cold n = 128 consensus run has 7,396 broadcasts in one
// round and 7,397 in a later one. After warm rounds of B = 86 · 86 =
// 7,396 broadcasts (the index list then has room for 8,192), a round of
// B + 1 allocates nothing.
func TestOneMoreBroadcastAllocatesNothing(t *testing.T) {
	const n, k = 86, 86
	net := New(Config{})
	defer net.Close()
	sayers := make([]*sayer, n)
	for i, id := range ids.Sparse(rand.New(rand.NewSource(3)), n) {
		sayers[i] = &sayer{id: id, k: k, odd: i%2 == 1, lead: i == 0}
		if err := net.Add(sayers[i]); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if len(net.bcastIdx) != n*k || cap(net.bcastIdx) <= n*k {
		t.Fatalf("a warm round holds %d broadcasts with room for %d, want %d with room for more", len(net.bcastIdx), cap(net.bcastIdx), n*k)
	}
	// Count's warm-up call runs one more round of B; the measured call
	// runs the round of B + 1.
	allocs := allocgate.Count(1, func() {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
		sayers[0].extra = true
	})
	if len(net.bcastIdx) != n*k+1 {
		t.Fatalf("the measured round routed %d broadcasts, want %d", len(net.bcastIdx), n*k+1)
	}
	if allocs != 0 {
		t.Fatalf("a round of one broadcast more than the warm ones allocated %d times, want 0", allocs)
	}
}
