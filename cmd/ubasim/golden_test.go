package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"uba"
	"uba/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/transcripts.golden from this tree's output")

const goldenPath = "testdata/transcripts.golden"

// goldenCase is one run whose whole output — result lines and the
// per-delivery transcript — is pinned by hash. workers is how many
// goroutines step the run's nodes (0 = the default, inline).
type goldenCase struct {
	name string
	run  func(workers int) ([]byte, error)
}

func cliCase(name string, args ...string) goldenCase {
	return goldenCase{name, func(workers int) ([]byte, error) {
		var buf bytes.Buffer
		err := run(append(args, "-seed", "7", "-trace", "999", "-jobs", strconv.Itoa(workers)), &buf)
		return buf.Bytes(), err
	}}
}

// quotaCase runs one family through uba.Config with a SendQuota smaller
// than a round's echoes: which sends survive is the longest queue prefix,
// so the transcript pins each node's emission order within a Step. A
// starved run may end in an error; the error text is part of the output.
func quotaCase(name string, quota int, adv uba.Adversary, call func(uba.Config) error) goldenCase {
	return goldenCase{name, func(workers int) ([]byte, error) {
		log := trace.NewEventLog(0)
		err := call(uba.Config{
			Correct: 9, Byzantine: 3, Adversary: adv, Seed: 7, Workers: workers,
			MaxRounds: 40, SendQuota: quota, EventLog: log,
		})
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "err=%v\n", err)
		rerr := log.Render(&buf, 999)
		return buf.Bytes(), rerr
	}}
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	protocols := []string{"consensus", "rotor", "rb", "trb", "approx", "renaming", "vector"}
	for _, p := range protocols {
		for _, a := range []string{"silent", "split", "noise", "crash", "ghost"} {
			cases = append(cases, cliCase(p+"/"+a, "-protocol", p, "-g", "9", "-f", "3", "-adversary", a))
		}
		// More than 64 senders: every sender set spans two words.
		cases = append(cases, cliCase(p+"/split/n=93", "-protocol", p, "-g", "70", "-f", "23", "-adversary", "split"))
	}
	inputs := func(scale float64) []float64 {
		in := make([]float64, 9)
		for i := range in {
			in[i] = float64(i%2) * scale
		}
		return in
	}
	return append(cases,
		quotaCase("quota/rb", 1, uba.AdversarySplit, func(c uba.Config) error {
			_, err := uba.ReliableBroadcast(c, []byte("payload"), 8)
			return err
		}),
		quotaCase("quota/rotor", 4, uba.AdversaryGhost, func(c uba.Config) error {
			_, err := uba.Rotor(c)
			return err
		}),
		quotaCase("quota/renaming", 4, uba.AdversaryGhost, func(c uba.Config) error {
			_, err := uba.Renaming(c)
			return err
		}),
		quotaCase("quota/consensus", 4, uba.AdversarySplit, func(c uba.Config) error {
			_, err := uba.Consensus(c, inputs(1))
			return err
		}),
		quotaCase("quota/trb", 4, uba.AdversarySplit, func(c uba.Config) error {
			_, err := uba.TerminatingBroadcast(c, []byte("payload"), true)
			return err
		}),
		quotaCase("quota/vector", 4, uba.AdversarySplit, func(c uba.Config) error {
			_, err := uba.InteractiveConsistency(c, inputs(100))
			return err
		}),
	)
}

// TestTranscriptGolden holds every protocol's transcript to the hashes
// committed in testdata: byte-identity against the commit that generated
// them, for 7 protocols × 5 adversaries, a two-word-census size, and one
// quota-starved run per family — each with the nodes stepped inline and
// by three goroutines, which the one file holds both to. A change that is
// meant to alter what nodes send regenerates the file with `go test
// ./cmd/ubasim -run TestTranscriptGolden -update` and says so.
func TestTranscriptGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases() {
		out, err := c.run(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Contains(out, []byte("--- round 2 ---")) {
			t.Fatalf("%s: output holds no transcript:\n%.400s", c.name, out)
		}
		if stepped, err := c.run(3); err != nil || !bytes.Equal(stepped, out) {
			t.Errorf("%s: three step workers changed the output (err=%v)", c.name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(out), c.name)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for _, line := range strings.Split(got.String(), "\n") {
		if !slices.Contains(wantLines, line) {
			t.Errorf("transcript changed: %s", line)
		}
	}
	if !t.Failed() {
		t.Errorf("%s lists runs this tree no longer produces", goldenPath)
	}
}
