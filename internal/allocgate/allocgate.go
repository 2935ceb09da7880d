// Package allocgate measures allocations for the zero-alloc gates. Count
// runs a function the way testing.AllocsPerRun does — at GOMAXPROCS 1,
// one warm-up call, then the measured calls between two reads of
// runtime.MemStats.Mallocs — but returns the total instead of the
// floored mean. AllocsPerRun divides in integers, so a gate that wants
// it to read 0 passes an allocation made on fewer than one call in
// runs; a gate that wants Count to read 0 does not.
package allocgate

import (
	"runtime"
	"runtime/debug"
)

// Count calls f once to warm it up, then runs more times, and returns
// the number of heap allocations the measured calls made in total.
//
// The runtime allocates for itself too, and a total sees it. So before
// counting, Count collects and returns all free memory to the operating
// system: no collection is still marking (its mark workers allocate)
// and the background scavenger has nothing left to return, so it does
// not wake and re-arm its sleep timer (which can grow a timer heap).
// Calls that allocate nothing start no collection that would wake it.
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
