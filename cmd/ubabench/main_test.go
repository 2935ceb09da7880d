package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunSingleExperimentText(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "E1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E1", "PASS", "claim:", "accept round"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "E2") {
		t.Fatal("-only E1 leaked other experiments")
	}
}

func TestRunMarkdown(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "E3", "-markdown"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### E3", "**Claim.**", "**Measured.**", "| n | f |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-only", "E99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// An unknown flag fails parsing, and so do the retired perf-smoke band
// flags: the bands are constants.
func TestRunBadFlag(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{{"-nope"}, {"-tolerance", "1"}, {"-alloc-tolerance", "1"}} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunCaseInsensitiveOnly(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "e15"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E15") {
		t.Fatal("case-insensitive -only failed")
	}
}

// EXPERIMENTS.md ends with exactly what `ubabench -markdown` prints, so a
// change that moves a measured table fails here until the file is
// regenerated (the text before the tables is hand-written and not
// compared).
func TestExperimentsMarkdownIsCommitted(t *testing.T) {
	t.Parallel()
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-markdown"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(committed, buf.Bytes()) {
		t.Fatalf("EXPERIMENTS.md does not end with the %d bytes `go run ./cmd/ubabench -markdown` prints: paste them over its tables", buf.Len())
	}
}
