package spec

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// The spec shares no code with what it checks: besides the standard
// library it imports only the engine, the payloads, the identifier type
// and the Byzantine nodes — no census and nothing of internal/core. The
// packages it links keep to the same rule, except the engine's own
// imports, and none of them is the module root or under internal/core.
func TestImportsOnlyStdAndTheEngine(t *testing.T) {
	const engine = "uba/internal/simnet"
	allowed := []string{"uba/internal/adversary", "uba/internal/ids", engine, "uba/internal/wire"}
	inModule := func(path string) bool {
		return path == "uba" || strings.HasPrefix(path, "uba/") || strings.Contains(strings.Split(path, "/")[0], ".")
	}
	check := func(who string, imports []string) (linked []string) {
		for _, path := range imports {
			if !inModule(path) {
				continue
			}
			if !slices.Contains(allowed, path) && who != engine {
				t.Errorf("%s imports %s", who, path)
			}
			linked = append(linked, path)
		}
		return linked
	}
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	queue := check("internal/spec", slices.Concat(pkg.Imports, pkg.TestImports))
	for seen := map[string]bool{}; len(queue) > 0; queue = queue[1:] {
		path := queue[0]
		if seen[path] {
			continue
		}
		seen[path] = true
		if path == "uba" || strings.HasPrefix(path, "uba/internal/core/") {
			t.Errorf("internal/spec links %s", path)
		}
		dep, err := build.Import(path, ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		queue = append(queue, check(path, dep.Imports)...)
	}
}
