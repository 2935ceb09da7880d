// Package allocs pins the Allocates fact rendering: which sites fold
// into the summary, which steady-state exemptions keep it clean, and how
// it propagates through local calls.
package allocs

import "fmt"

// Fresh allocates a new backing array on every call.
func Fresh(n int) []int { // want `summary: allocs\(make\)`
	return make([]int, n)
}

// Grow appends in return position — not the recycled self-append
// shape — so the append kind lands in the fact alongside the flow.
func Grow(s []int) []int { // want `summary: flows\(1\)\+allocs\(append\)`
	return append(s, 1)
}

// Recycled is the self-append shape over a parameter-rooted slice: the
// append is exempt, so the fact carries only the flow (the end anchor
// pins the absence of an allocs part).
func Recycled(s []int) []int { // want `summary: flows\(1\)$`
	s = append(s, 1)
	return s
}

// CapGuarded is the grow-once idiom: the make amortizes to zero.
func CapGuarded(s []int, n int) []int { // want `summary: flows\(1\)$`
	if cap(s) < n {
		s = make([]int, n)
	}
	return s
}

// Format carries one fmt site; the implied argument boxing is subsumed.
func Format(x int) string { // want `summary: allocs\(fmt\)`
	return fmt.Sprintf("%d", x)
}

// Multi folds two allocation kinds, rendered in bit order.
func Multi(n int) string { // want `summary: allocs\(make,string\)`
	b := make([]byte, n)
	return string(b)
}

// Laundered allocates only through its callee: the make kind crosses
// the call through Fresh's fact.
func Laundered() []int { // want `summary: allocs\(make\)`
	return Fresh(8)
}

// ColdSetup's doc directive clears its fact entirely: a once-guarded
// setup path certifies as effect-free (pinned by the absence of any
// summary diagnostic on this declaration).
//
//lint:coldpath fixture stand-in for a once-guarded setup path
func ColdSetup() string {
	return fmt.Sprintf("%d", 0)
}

// TryRecv appends into its parameter inside a select clause: the
// recycled self-append exemption holds there too, so the end anchor
// pins the absence of an allocs part.
func TryRecv(ch chan int, dst []int) []int { // want `summary: flows\(10\)$`
	select {
	case v := <-ch:
		dst = append(dst, v)
	default:
	}
	return dst
}
