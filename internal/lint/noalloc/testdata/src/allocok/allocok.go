// Package allocok holds conforming //lint:noalloc functions: every
// structural allocation site falls under one of the prover's
// steady-state exemptions, so the pass reports nothing.
package allocok

import "fmt"

type received struct {
	from int
	enc  string
}

type arena struct {
	block []received
	n     int
}

// Grown is the grow-once idiom: the make runs only while the backing
// array is below its high-water mark, so it amortizes to zero on the
// steady state.
//
//lint:noalloc capacity-guarded growth amortizes to zero on the steady state
func (a *arena) Grown(n int) {
	if cap(a.block) < n {
		a.block = make([]received, n)
	}
	a.block = a.block[:n]
}

// Refill appends into the receiver's recycled buffer: the
// `x = append(x, ...)` self-append shape over a parameter-rooted slice
// reuses the warmed backing array.
//
//lint:noalloc self-appends land in the pre-sized recycled block
func (a *arena) Refill(m received) {
	a.block = append(a.block, m)
}

// Fill writes by-value struct literals into caller-owned slots; a
// composite literal only heap-allocates when its address is taken.
//
//lint:noalloc by-value literals into existing slots stay off the heap
func Fill(dst []received, from int) {
	for i := range dst {
		dst[i] = received{from: from}
	}
}

// SortKeyed uses a non-capturing comparison literal, which the
// compiler materializes as a static closure.
//
//lint:noalloc the comparison literal captures nothing and stays static
func SortKeyed(xs []int) {
	less := func(a, b int) bool { return a < b }
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Guarded runs its cleanup in a directly deferred literal, which the
// compiler open-codes rather than heap-allocating.
//
//lint:noalloc the deferred literal is open-coded, not heap-allocated
func (a *arena) Guarded() {
	defer func() {
		a.n = 0
	}()
	a.n++
}

// Checked allocates only on its error branch; the line-level coldpath
// directive exempts the format site (and the next line) from the
// steady-state claim.
//
//lint:noalloc the error format never runs on the steady-state path
func Checked(v int) error {
	if v < 0 {
		//lint:coldpath negative inputs abort the run; the format is off the steady-state path
		return fmt.Errorf("bad value %d", v)
	}
	return nil
}

// Flush delegates to a helper whose own summary fact is
// allocation-free, so the interprocedural fold stays clean.
//
//lint:noalloc delegated work is itself certified allocation-free
func (a *arena) Flush(dst []received) int {
	return a.drain(dst)
}

func (a *arena) drain(dst []received) int {
	n := copy(dst, a.block)
	a.block = a.block[:0]
	return n
}

// Match compares a byte slice with a string through a conversion, which
// the compiler makes without copying for a comparison operand.
//
//lint:noalloc a compared conversion reads the bytes in place
func Match(b []byte, s string) bool {
	return string(b) == s || string(b) < s
}

// Observe passes pointer-shaped, interface and zero-size operands into
// an interface parameter: all three ride in the data word without
// boxing. The call through the function value is a trust boundary.
//
//lint:noalloc pointer-shaped, interface and zero-size operands do not box
func Observe(sink func(any), p *arena, e error) {
	sink(p)
	sink(e)
	sink(struct{}{})
}
