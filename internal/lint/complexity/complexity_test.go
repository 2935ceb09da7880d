package complexity_test

import (
	"testing"

	ccplx "uba/internal/complexity"
	"uba/internal/lint/complexity"
	"uba/internal/lint/linttest"
)

// table is the fixture registry. Each test runs the pass over one
// fixture package, so the other package's entries also pin that an
// entry is certified only inside the package named by its Family.
var table = []ccplx.Entry{
	{Family: "conform", Type: "Acker", Contract: ccplx.Contract{Broadcasts: ccplx.Const, Unicasts: ccplx.Linear}},
	{Family: "conform", Type: "Dispatcher", Contract: ccplx.Contract{Broadcasts: ccplx.Quadratic}},
	{Family: "conform", Type: "Echo", Contract: ccplx.Contract{Broadcasts: ccplx.Linear}},
	{Family: "conform", Type: "Laundry", Contract: ccplx.Contract{Broadcasts: ccplx.Linear}},
	{Family: "conform", Type: "Quiet", Contract: ccplx.Contract{Broadcasts: ccplx.Const}},
	{Family: "conform", Type: "Silent", Contract: ccplx.Contract{}},
	{Family: "violate", Type: "Allowed", Contract: ccplx.Contract{Broadcasts: ccplx.Const}},
	{Family: "violate", Type: "Hidden", Contract: ccplx.Contract{Broadcasts: ccplx.Const}},
	{Family: "violate", Type: "Loose", Contract: ccplx.Contract{Broadcasts: ccplx.Linear}},
	{Family: "violate", Type: "Misnested", Contract: ccplx.Contract{Broadcasts: ccplx.Linear}},
	{Family: "violate", Type: "Missing", Contract: ccplx.Contract{Broadcasts: ccplx.Const}},
	{Family: "violate", Type: "Sneaky", Contract: ccplx.Contract{Broadcasts: ccplx.Const}},
	{Family: "violate", Type: "Stepless", Contract: ccplx.Contract{Broadcasts: ccplx.Const}},
}

// TestConform runs the certifier over contracts that match their Step
// implementations exactly: zero diagnostics.
func TestConform(t *testing.T) {
	linttest.Run(t, "testdata", complexity.New(table), "conform")
}

// TestViolate pins every failure mode: helper-laundered sends
// exceeding the contract, loop-nesting misclassification, hidden
// unicasts, an over-loose contract, a contract without a Step, an
// entry naming an undeclared type, and the suppression path.
func TestViolate(t *testing.T) {
	linttest.Run(t, "testdata", complexity.New(table), "violate")
}
