package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uba/internal/lint"

	"golang.org/x/tools/go/analysis"
)

// TestValidate checks the suite against the go/analysis well-formedness
// rules (unique names, documented, acyclic requirements).
func TestValidate(t *testing.T) {
	if err := analysis.Validate(lint.Analyzers()); err != nil {
		t.Fatal(err)
	}
	if got := len(lint.Analyzers()); got != 5 {
		t.Fatalf("suite has %d analyzers, want 5 (retainenv, determinism, wirereg, complexity, summary)", got)
	}
}

// TestUbalintSelf builds cmd/ubalint and runs it, via go vet, over every
// package of this module — the same invocation as make lint — and
// requires zero findings. This is the gate that keeps the tree from
// silently regressing against its own linter.
func TestUbalintSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint rebuilds the world; skipped in -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not in PATH: %v", err)
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "ubalint")

	build := exec.Command(goTool, "build", "-o", bin, "./cmd/ubalint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ubalint: %v\n%s", err, out)
	}

	vet := exec.Command(goTool, "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("ubalint found violations in the tree:\n%s", out)
	}
}

// TestUbalintTransitiveModule builds cmd/ubalint and vets the chainmod
// fixture module (testdata/chainmod), a three-package chain
// proto -> helper -> leaf whose violations are only visible through
// summary facts carried across package boundaries in .vetx files —
// the deployment-level proof that the unitchecker propagates them.
// The cyc package (mutual recursion, no violations) proves the
// fixpoint terminates under the real driver.
func TestUbalintTransitiveModule(t *testing.T) {
	if testing.Short() {
		t.Skip("module-level vet rebuilds the world; skipped in -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not in PATH: %v", err)
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "ubalint")

	build := exec.Command(goTool, "build", "-o", bin, "./cmd/ubalint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ubalint: %v\n%s", err, out)
	}

	// The determinism gate is opened to the fixture module's path; the
	// other passes apply structurally.
	vet := exec.Command(goTool, "vet", "-vettool="+bin, "-determinism.packages=^chainmod", "./...")
	vet.Dir = filepath.Join(root, "internal", "lint", "testdata", "chainmod")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet over chainmod reported no findings; want the transitive violations\n%s", out)
	}
	for _, want := range []string{
		"passed to Save, which retains it past the call",
		"call to Relay inside map range has order-sensitive effects",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "cyc") {
		t.Errorf("vet flagged the violation-free cyc package:\n%s", out)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
