package bo

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
)

// goldenRun mirrors the JSON layout of testdata/serial_golden.json, which
// was generated by the pre-batching serial implementation of Minimize.
type goldenRun struct {
	Seed    int64
	History []struct {
		Point []int
		Value float64
	}
	Best    []int
	BestVal float64
}

func goldenSpace() Space {
	return Space{Params: []Param{
		{Name: "x", Min: 0, Max: 100},
		{Name: "y", Min: 1, Max: 64, Log: true},
		{Name: "z", Min: 0, Max: 30},
	}}
}

func goldenObj(p []int) (float64, error) {
	dx := float64(p[0] - 30)
	dy := float64(p[1] - 8)
	dz := float64(p[2] - 11)
	return dx*dx/100 + dy*dy + dz*dz/9, nil
}

// TestSerialHistoryMatchesGolden is the determinism contract: with
// Parallel <= 1, MinimizeContext must return the identical Result.History as
// the original serial implementation for a fixed seed, so paper-reproduction
// numbers are unchanged by the batched/incremental machinery.
func TestSerialHistoryMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/serial_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var runs []goldenRun
	if err := json.Unmarshal(raw, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("empty golden file")
	}
	for _, run := range runs {
		opt := DefaultOptions()
		opt.MaxIters = 30
		opt.InitPoints = 6
		opt.Seed = run.Seed
		opt.Candidates = 128
		res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) != len(run.History) {
			t.Fatalf("seed %d: history length %d, want %d", run.Seed, len(res.History), len(run.History))
		}
		for i, e := range res.History {
			if !reflect.DeepEqual(e.Point, run.History[i].Point) || e.Value != run.History[i].Value {
				t.Fatalf("seed %d: history[%d] = (%v, %v), golden (%v, %v)",
					run.Seed, i, e.Point, e.Value, run.History[i].Point, run.History[i].Value)
			}
		}
		if !reflect.DeepEqual(res.Best, run.Best) || res.BestValue != run.BestVal {
			t.Fatalf("seed %d: best (%v, %v), golden (%v, %v)", run.Seed, res.Best, res.BestValue, run.Best, run.BestVal)
		}
	}
}

// Batched mode must respect the evaluation budget exactly and produce a
// deterministic history for a fixed seed.
func TestMinimizeBatchedBudgetAndDeterminism(t *testing.T) {
	run := func() *Result {
		opt := DefaultOptions()
		opt.MaxIters = 26
		opt.InitPoints = 6
		opt.Seed = 11
		opt.Candidates = 64
		opt.Parallel = 4
		res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.History) != 26 {
		t.Fatalf("history length %d, want 26", len(a.History))
	}
	if !reflect.DeepEqual(a.History, b.History) {
		t.Fatal("batched MinimizeContext is not deterministic for a fixed seed")
	}
	if a.BestValue > 8 {
		t.Fatalf("batched BO best value %v at %v; want < 8", a.BestValue, a.Best)
	}
}

// Every point in a batched run must be distinct: the constant-liar loop and
// the duplicate-redraw guard together must never spend two evaluations on
// the same point while unseen points remain.
func TestMinimizeBatchedAvoidsDuplicates(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxIters = 32
	opt.InitPoints = 8
	opt.Seed = 5
	opt.Candidates = 64
	opt.Parallel = 4
	res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range res.History {
		k := key(e.Point)
		if seen[k] {
			t.Fatalf("duplicate evaluation at %v", e.Point)
		}
		seen[k] = true
	}
}

// The serial duplicate fallback must also keep re-drawing until the point is
// new (the single-redraw bug): on a tiny space every point gets evaluated
// exactly once before duplicates are allowed.
func TestSerialDuplicateFallbackExhaustsSpace(t *testing.T) {
	s := Space{Params: []Param{{Name: "x", Min: 0, Max: 5}}}
	obj := func(p []int) (float64, error) {
		v := float64(p[0] - 3)
		return v * v, nil
	}
	opt := DefaultOptions()
	opt.MaxIters = 6 // exactly the space size
	opt.InitPoints = 2
	opt.Seed = 1
	opt.Candidates = 16
	res, err := MinimizeContext(context.Background(), s, obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range res.History {
		k := key(e.Point)
		if seen[k] {
			t.Fatalf("duplicate evaluation at %v with unseen points remaining", e.Point)
		}
		seen[k] = true
	}
	if len(seen) != 6 {
		t.Fatalf("evaluated %d distinct points, want all 6", len(seen))
	}
}

// Batched mode must reach a good optimum too, with every evaluation counted
// once.
func TestMinimizeBatchedFindsGoodPoint(t *testing.T) {
	var calls atomic.Int64
	obj := func(p []int) (float64, error) {
		calls.Add(1)
		return quadObj(p)
	}
	opt := DefaultOptions()
	opt.MaxIters = 40
	opt.InitPoints = 8
	opt.Seed = 3
	opt.Parallel = 4
	opt.Batch = 3
	res, err := MinimizeContext(context.Background(), testSpace(), obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 40 {
		t.Fatalf("objective called %d times, want 40", got)
	}
	if res.BestValue > 5 {
		t.Fatalf("batched BO best value %v at %v; want < 5", res.BestValue, res.Best)
	}
	if math.IsInf(res.BestValue, 1) {
		t.Fatal("no successful evaluation")
	}
}

// Failures in batched mode are recorded and survive as long as one
// evaluation succeeds.
func TestMinimizeBatchedHandlesFailures(t *testing.T) {
	var calls atomic.Int64
	obj := func(p []int) (float64, error) {
		if calls.Add(1)%3 == 0 {
			return 0, errTransient
		}
		return quadObj(p)
	}
	opt := DefaultOptions()
	opt.MaxIters = 20
	opt.InitPoints = 5
	opt.Parallel = 4
	res, err := MinimizeContext(context.Background(), testSpace(), obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, e := range res.History {
		if e.Err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("expected some failed evaluations in history")
	}
	if math.IsInf(res.BestValue, 1) {
		t.Fatal("no successful evaluation recorded")
	}
}

var errTransient = errors.New("transient failure")
