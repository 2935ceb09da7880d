package allocgate

import "testing"

var sink []byte

// TestCountSeesASometimesAllocation: an allocation on every other call
// is 50 allocations over 100 calls, which AllocsPerRun floors to 0.
func TestCountSeesASometimesAllocation(t *testing.T) {
	calls := 0
	f := func() {
		calls++
		if calls%2 == 0 {
			sink = make([]byte, 64)
		}
	}
	if got := Count(100, f); got != 50 {
		t.Errorf("Count = %d, want 50", got)
	}
	if got := Count(100, func() {}); got != 0 {
		t.Errorf("Count of an empty call = %d, want 0", got)
	}
}
