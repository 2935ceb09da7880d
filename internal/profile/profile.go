// Package profile writes the -cpuprofile and -memprofile of the
// command-line tools: a CPU profile and a profile of the heap allocated
// (go tool pprof reads both) of one run of the tool's work.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles writes the -cpuprofile and -memprofile of one run. Heap
// sampling is off until Start, so the heap profile holds only what that
// run allocated. Without -memprofile the process's sampling rate is
// neither read nor written, so runs in one process may run in parallel.
type Profiles struct {
	cpu, mem string
	rate     int // runtime.MemProfileRate before the pause
	cpuFile  *os.File
}

// Pause turns heap sampling off if -memprofile is set, until Start.
func Pause(cpu, mem string) *Profiles {
	p := &Profiles{cpu: cpu, mem: mem}
	if mem != "" {
		p.rate, runtime.MemProfileRate = runtime.MemProfileRate, 0
	}
	return p
}

// Start begins the profiles of the run about to start: the CPU
// profile first, so the heap profile does not hold its buffers.
func (p *Profiles) Start() error {
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	if p.mem != "" {
		runtime.MemProfileRate = p.rate
	}
	return nil
}

// Stop ends the CPU profile and writes the heap profile of the run.
func (p *Profiles) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		err := p.cpuFile.Close()
		p.cpuFile = nil
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if p.mem == "" {
		return nil
	}
	runtime.GC() // the profile holds the allocations of completed cycles
	f, err := os.Create(p.mem)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("-memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}

// Restore ends a CPU profile a failed run left running and puts the
// heap sampling rate back.
func (p *Profiles) Restore() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
	}
	if p.mem != "" {
		runtime.MemProfileRate = p.rate
	}
}
