// Package proto is the top of the fixture chain: two fact hops away
// from the effects in leaf. The receiver occupies tracked slot 0, so
// the retained parameter p sits in slot 1 (mask 10 in binary).
package proto

import "helper"

type node struct{ last []int }

// Step retains p two packages away (helper.Save -> leaf.Stash).
func (n *node) Step(p *int) { // want `summary: retains\(10\)$`
	helper.Save(p)
}

// Absorb stores a laundered alias of in (slot 1) into the receiver.
func (n *node) Absorb(in []int) { // want `summary: retains\(10\)$`
	n.last = helper.Rest(in)
}

// Peek reads through the effect-free chain: stays pure.
func (n *node) Peek(in []int) int { return helper.Len(in) }
