package bo

import (
	"context"
	"math"
	"testing"
)

func TestAcquisitionNamesAndValidity(t *testing.T) {
	if EI.String() != "ei" || LCB.String() != "lcb" || PI.String() != "pi" {
		t.Fatal("acquisition names wrong")
	}
	if !EI.valid() || !LCB.valid() || !PI.valid() {
		t.Fatal("standard acquisitions should be valid")
	}
	if Acquisition(9).valid() {
		t.Fatal("acquisition 9 should be invalid")
	}
	if Acquisition(9).String() == "" {
		t.Fatal("unknown acquisition should still render")
	}
}

func TestPIScoreProperties(t *testing.T) {
	// Certain improvement.
	if got := PI.score(1, 0.5, 0); got != 1 {
		t.Fatalf("PI certain improvement = %v, want 1", got)
	}
	if got := PI.score(1, 2, 0); got != 0 {
		t.Fatalf("PI certain non-improvement = %v, want 0", got)
	}
	// Mean equals best: probability 1/2.
	if got := PI.score(1, 1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("PI at mean==best = %v, want 0.5", got)
	}
	// Lower mean → higher PI.
	if PI.score(1, 0.2, 0.5) <= PI.score(1, 0.8, 0.5) {
		t.Fatal("PI should increase as the posterior mean drops")
	}
}

func TestLCBScoreProperties(t *testing.T) {
	// Lower mean → higher (better) score.
	if LCB.score(0, 1, 0.1) <= LCB.score(0, 2, 0.1) {
		t.Fatal("LCB should prefer lower means")
	}
	// Higher uncertainty → higher score (exploration bonus).
	if LCB.score(0, 1, 2) <= LCB.score(0, 1, 0.1) {
		t.Fatal("LCB should prefer higher uncertainty at equal mean")
	}
}

func TestMinimizeRejectsUnknownAcquisition(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxIters = 3
	opt.Acq = Acquisition(7)
	if _, err := MinimizeContext(context.Background(), testSpace(), quadObj, opt); err == nil {
		t.Fatal("expected error for unknown acquisition")
	}
}

// TestAllAcquisitionsFindGoodPoints: every acquisition should land near the
// optimum of the smooth test objective with a modest budget.
func TestAllAcquisitionsFindGoodPoints(t *testing.T) {
	for _, acq := range []Acquisition{EI, LCB, PI} {
		opt := DefaultOptions()
		opt.MaxIters = 40
		opt.InitPoints = 8
		opt.Seed = 11
		opt.Acq = acq
		res, err := MinimizeContext(context.Background(), testSpace(), quadObj, opt)
		if err != nil {
			t.Fatalf("%s: %v", acq, err)
		}
		if res.BestValue > 8 {
			t.Fatalf("%s: best value %v at %v, want < 8", acq, res.BestValue, res.Best)
		}
	}
}
