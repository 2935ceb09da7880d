package uba

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The CI gates name their tests in `-run` (and `-fuzz`) patterns, and go
// test passes a pattern that matches nothing without a word. So every
// alternative of every such pattern in the workflow must match a test
// function declared in the packages its step runs: a renamed or deleted
// gate test fails here, not silently in an empty gate.
func TestCIGateNamesMatchTests(t *testing.T) {
	t.Parallel()
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, line := range strings.Split(string(ci), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "run: go test ") {
			continue
		}
		args := shellWords(strings.TrimPrefix(line, "run: "))
		var patterns, pkgs []string
		for i, a := range args {
			switch {
			case (a == "-run" || a == "-fuzz") && i+1 < len(args):
				patterns = append(patterns, args[i+1])
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		steps++
		if len(pkgs) == 0 {
			t.Fatalf("a gate names no package: %s", line)
		}
		var declared []string
		for _, p := range pkgs {
			declared = append(declared, testFuncs(t, p)...)
		}
		for _, pattern := range patterns {
			if pattern == "^$" {
				continue
			}
			for _, name := range strings.Split(pattern, "|") {
				re := regexp.MustCompile(name)
				if !containsMatch(declared, re) {
					t.Errorf("ci.yml runs %q in %v, but no test function there matches it", name, pkgs)
				}
			}
		}
	}
	if steps == 0 {
		t.Fatal("ci.yml has no go test step with a -run or -fuzz pattern")
	}
}

// shellWords splits a command line on blanks, keeping single-quoted
// words whole and dropping their quotes.
func shellWords(line string) []string {
	var words []string
	for i, part := range strings.Split(line, "'") {
		if i%2 == 1 {
			words = append(words, part)
		} else {
			words = append(words, strings.Fields(part)...)
		}
	}
	return words
}

// testFuncs returns the Test and Fuzz functions declared in the test
// files of the package directory pkg, or of every package under it for
// a "/..." pattern.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func containsMatch(names []string, re *regexp.Regexp) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
