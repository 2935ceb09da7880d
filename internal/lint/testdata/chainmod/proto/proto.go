// Package proto is where the diagnostic must land: its Step method
// looks innocent intraprocedurally — the violation is two package hops
// away, visible only through summary facts.
package proto

import (
	"chainmod/helper"
	"chainmod/simnet"
)

// Node is a protocol process.
type Node struct{ seen int }

// Step hands the round env to helper.Save, which retains it in leaf's
// package state. The retention is flagged here.
func (n *Node) Step(env *simnet.RoundEnv) {
	helper.Save(env)
	n.seen += helper.Tally(env.Inbox)
	env.Broadcast("ok")
}
