package uba

import (
	"fmt"
	"math"
	"math/rand"

	"uba/internal/core/ordering"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// Event is one totally-ordered event as seen in a node's chain.
type Event struct {
	// Round is the protocol round whose agreement decided the event.
	Round uint64
	// Submitter identifies the node that submitted it.
	Submitter uint64
	// Value is the event value.
	Value float64
}

// OrderingCluster is an interactive handle on a running dynamic
// total-ordering system (Algorithm 6): submit events, add and remove
// members, advance rounds, read chains. It is not safe for concurrent
// use.
type OrderingCluster struct {
	cl    *cluster
	rng   *rand.Rand
	nodes []*ordering.Node // the members, in founder-then-join order
}

// NewOrderingCluster boots a dynamic total-ordering system with
// cfg.Correct founding members (plus cfg.Byzantine silent Byzantine
// founders counted in every snapshot). Use Join/Leave for churn.
func NewOrderingCluster(cfg Config) (*OrderingCluster, error) {
	cl, err := newCluster(cfg, "ordering")
	if err != nil {
		return nil, err
	}
	members := ids.NewSet(cl.all...)
	oc := &OrderingCluster{
		cl:    cl,
		rng:   rand.New(rand.NewSource(cfg.Seed + 7919)),
		nodes: make([]*ordering.Node, 0, cfg.Correct),
	}
	for _, id := range cl.correctIDs {
		node, err := ordering.NewFounder(id, members)
		if err != nil {
			return nil, err
		}
		oc.nodes = append(oc.nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	if err := cl.addByzantine(func(ids.ID, int) simnet.Process { return nil }); err != nil {
		return nil, err
	}
	return oc, nil
}

// Members returns the ids of the correct members currently driven by this
// handle, in founder-then-join order.
func (c *OrderingCluster) Members() []uint64 {
	out := make([]uint64, len(c.nodes))
	for i, node := range c.nodes {
		out[i] = uint64(node.ID())
	}
	return out
}

// node returns the member's node.
func (c *OrderingCluster) node(member uint64) (*ordering.Node, error) {
	for _, node := range c.nodes {
		if uint64(node.ID()) == member {
			return node, nil
		}
	}
	return nil, fmt.Errorf("uba: unknown member %d", member)
}

// RunRounds advances the whole system the given number of rounds. A
// session is bounded by the protocol's instance tags: it is an error to
// step a member past protocol round ordering.MaxRound.
func (c *OrderingCluster) RunRounds(rounds int) error {
	for i := 0; i < rounds; i++ {
		for _, node := range c.nodes {
			if node.Round() >= ordering.MaxRound {
				return fmt.Errorf("uba: ordering session is at its last round (%d); start a new cluster", ordering.MaxRound)
			}
		}
		if err := c.cl.net.RunRound(); err != nil {
			return fmt.Errorf("ordering round: %w", err)
		}
	}
	return c.cl.complexityErr()
}

// SubmitEvent queues an event at the given member for its next round.
// A NaN is refused: members drop NaN events, so it could never be ordered.
func (c *OrderingCluster) SubmitEvent(member uint64, value float64) error {
	if math.IsNaN(value) {
		return fmt.Errorf("uba: event value is NaN")
	}
	node, err := c.node(member)
	if err != nil {
		return err
	}
	node.SubmitEvent(value)
	return nil
}

// Join adds a fresh correct node via the present/ack handshake and
// returns its id. The handshake completes over the next few rounds.
func (c *OrderingCluster) Join() (uint64, error) {
	id := ids.Sparse(c.rng, 1)[0]
	node, err := ordering.NewJoiner(id)
	if err != nil {
		return 0, err
	}
	if err := c.cl.net.Add(node); err != nil {
		return 0, err
	}
	c.nodes = append(c.nodes, node)
	return uint64(id), nil
}

// Leave makes the member announce departure and wind down over the
// following rounds.
func (c *OrderingCluster) Leave(member uint64) error {
	node, err := c.node(member)
	if err != nil {
		return err
	}
	node.Leave()
	return nil
}

// Chain returns the member's current finalized event chain.
func (c *OrderingCluster) Chain(member uint64) ([]Event, error) {
	node, err := c.node(member)
	if err != nil {
		return nil, err
	}
	chain := node.Chain()
	out := make([]Event, 0, len(chain))
	for _, e := range chain {
		out = append(out, Event{
			Round:     e.Round,
			Submitter: uint64(e.Submitter),
			Value:     e.Value,
		})
	}
	return out, nil
}

// FinalizedThrough returns the largest round R such that every execution
// up to R is final at the member (0 if none yet).
func (c *OrderingCluster) FinalizedThrough(member uint64) (uint64, error) {
	node, err := c.node(member)
	if err != nil {
		return 0, err
	}
	return node.FinalizedThrough(), nil
}

// Round returns the member's current protocol round.
func (c *OrderingCluster) Round(member uint64) (uint64, error) {
	node, err := c.node(member)
	if err != nil {
		return 0, err
	}
	return node.Round(), nil
}

// Report returns the cluster's traffic accounting so far.
func (c *OrderingCluster) Report() trace.Report { return c.cl.report() }

// Close retires the cluster's network, returning its round scratch to
// the recycling pool for the next run. The cluster must not be used
// after Close. It is optional: an unclosed cluster holds no goroutines
// and is ordinary garbage.
func (c *OrderingCluster) Close() { c.cl.close() }
