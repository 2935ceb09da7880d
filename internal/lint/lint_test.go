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
// rules (unique names, documented, acyclic requirements) and pins its
// passes by name and order.
func TestValidate(t *testing.T) {
	if err := analysis.Validate(lint.Analyzers()); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range lint.Analyzers() {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, ","), "complexity,summary"; got != want {
		t.Fatalf("suite is %s, want %s", got, want)
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
// fixture module (testdata/chainmod) — the deployment-level proof that
// the unitchecker carries summary facts across packages in .vetx files.
// Two Process types, in packages named after registry families, reach a
// helper two package hops away that broadcasts in a loop: relbcast.Node
// is registered O(n) and must certify cleanly (a lost fact would make
// its contract look looser than its Step), approx.Node is registered
// O(1) and must be reported as exceeding it. The cyc package (mutual
// recursion, no Step) proves the fixpoint terminates under the real
// driver.
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

	vet := exec.Command(goTool, "vet", "-vettool="+bin, "./...")
	vet.Dir = filepath.Join(root, "internal", "lint", "testdata", "chainmod")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet over chainmod reported no findings; want approx.Node's transitive excess\n%s", out)
	}
	if want := "Node.Step exceeds its registered complexity: broadcasts derived O(n), registered O(1)"; !strings.Contains(string(out), want) {
		t.Errorf("vet output missing %q:\n%s", want, out)
	}
	for _, clean := range []string{"relbcast", "cyc"} {
		if strings.Contains(string(out), clean) {
			t.Errorf("vet flagged the violation-free %s package:\n%s", clean, out)
		}
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
