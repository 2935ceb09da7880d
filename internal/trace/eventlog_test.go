package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestEventLogRecordsInOrder(t *testing.T) {
	t.Parallel()
	l := NewEventLog(10)
	l.RecordBatch([]Event{{Round: 2, From: 1, To: 2, Kind: "input", Size: 9}})
	l.RecordBatch([]Event{{Round: 2, From: 1, To: 3, Kind: "input", Size: 9, Broadcast: true}})
	l.RecordBatch([]Event{{Round: 3, From: 2, To: 1, Kind: "prefer", Size: 9}})
	events := l.Events()
	if len(events) != 3 {
		t.Fatalf("%d events", len(events))
	}
	if events[0].To != 2 || events[2].Kind != "prefer" {
		t.Fatalf("events out of order: %+v", events)
	}
	// Events returns a copy.
	events[0].Kind = "mutated"
	if l.Events()[0].Kind == "mutated" {
		t.Fatal("Events leaked internal slice")
	}
}

func TestEventLogCapacity(t *testing.T) {
	t.Parallel()
	l := NewEventLog(2)
	for i := 0; i < 5; i++ {
		l.RecordBatch([]Event{{Round: 1, From: 1, To: 2, Kind: "x"}})
	}
	if len(l.Events()) != 2 {
		t.Fatalf("stored %d events, want 2", len(l.Events()))
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", l.Dropped())
	}
}

func TestEventLogDefaultCapacity(t *testing.T) {
	t.Parallel()
	l := NewEventLog(0)
	l.RecordBatch([]Event{{Round: 1}})
	if len(l.Events()) != 1 || l.Dropped() != 0 {
		t.Fatal("default-capacity log rejected an event")
	}
}

func TestEventLogRecordBatch(t *testing.T) {
	t.Parallel()
	l := NewEventLog(10)
	batch := []Event{
		{Round: 2, From: 1, To: 2, Kind: "a"},
		{Round: 2, From: 1, To: 3, Kind: "b"},
	}
	l.RecordBatch(batch)
	l.RecordBatch(nil) // no-op
	events := l.Events()
	if len(events) != 2 || events[0].Kind != "a" || events[1].Kind != "b" {
		t.Fatalf("batch not recorded in order: %+v", events)
	}
	// The batch is copied: mutating the caller's slice must not reach
	// the log.
	batch[0].Kind = "mutated"
	if l.Events()[0].Kind == "mutated" {
		t.Fatal("RecordBatch aliased the caller's slice")
	}
}

func TestEventLogRecordBatchCapacity(t *testing.T) {
	t.Parallel()
	l := NewEventLog(3)
	l.RecordBatch([]Event{{Round: 1, Kind: "pre"}})
	l.RecordBatch([]Event{{Kind: "a"}, {Kind: "b"}, {Kind: "c"}, {Kind: "d"}})
	if got := len(l.Events()); got != 3 {
		t.Fatalf("stored %d events, want 3 (capacity)", got)
	}
	if l.Events()[2].Kind != "b" {
		t.Fatalf("batch truncated at the wrong point: %+v", l.Events())
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", l.Dropped())
	}
	// A full log counts the whole batch as dropped.
	l.RecordBatch([]Event{{Kind: "e"}, {Kind: "f"}})
	if l.Dropped() != 4 {
		t.Fatalf("dropped %d, want 4", l.Dropped())
	}
}

func TestEventLogRenderGroupsBroadcasts(t *testing.T) {
	t.Parallel()
	l := NewEventLog(100)
	for to := uint64(1); to <= 4; to++ {
		l.RecordBatch([]Event{{Round: 2, From: 9, To: to, Kind: "input", Size: 10, Broadcast: true}})
	}
	l.RecordBatch([]Event{{Round: 3, From: 1, To: 9, Kind: "ack", Size: 5}})
	var buf bytes.Buffer
	if err := l.Render(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"--- round 2 ---", "=>(all:4)", "input", "40B", "--- round 3 ---", "1 -> 9", "ack"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEventLogRenderMaxRounds(t *testing.T) {
	t.Parallel()
	l := NewEventLog(100)
	l.RecordBatch([]Event{{Round: 1, From: 1, To: 2, Kind: "a"}})
	l.RecordBatch([]Event{{Round: 5, From: 1, To: 2, Kind: "b"}})
	var buf bytes.Buffer
	if err := l.Render(&buf, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "round 5") {
		t.Fatalf("maxRounds not respected:\n%s", buf.String())
	}
}

func TestEventLogRenderReportsDrops(t *testing.T) {
	t.Parallel()
	l := NewEventLog(1)
	l.RecordBatch([]Event{{Round: 1, From: 1, To: 2, Kind: "a"}})
	l.RecordBatch([]Event{{Round: 1, From: 1, To: 3, Kind: "a"}})
	var buf bytes.Buffer
	if err := l.Render(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "beyond capacity") {
		t.Fatalf("drop notice missing:\n%s", buf.String())
	}
}

func TestEventLogConcurrentRecording(t *testing.T) {
	t.Parallel()
	l := NewEventLog(10_000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.RecordBatch([]Event{{Round: 1, From: 1, To: 2, Kind: "x"}})
			}
		}()
	}
	wg.Wait()
	if got := len(l.Events()); got != 8000 {
		t.Fatalf("recorded %d events, want 8000", got)
	}
}
