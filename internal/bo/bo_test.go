package bo

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testSpace() Space {
	return Space{Params: []Param{
		{Name: "x", Min: 0, Max: 100},
		{Name: "y", Min: 1, Max: 64, Log: true},
	}}
}

// quadratic objective with minimum at (30, 8).
func quadObj(p []int) (float64, error) {
	dx := float64(p[0] - 30)
	dy := float64(p[1] - 8)
	return dx*dx/100 + dy*dy, nil
}

func TestSpaceValidate(t *testing.T) {
	if err := testSpace().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Space{Params: []Param{{Name: "x", Min: 5, Max: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for Min > Max")
	}
	badLog := Space{Params: []Param{{Name: "x", Min: 0, Max: 10, Log: true}}}
	if err := badLog.Validate(); err == nil {
		t.Fatal("expected error for log param with Min 0")
	}
	if err := (Space{}).Validate(); err == nil {
		t.Fatal("expected error for empty space")
	}
}

// Property: Sample always lands inside the space and Normalize maps it to
// [0,1]^d.
func TestSampleInsideAndNormalized(t *testing.T) {
	s := testSpace()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			p := s.Sample(rng)
			if !s.Contains(p) {
				return false
			}
			for _, v := range s.Normalize(p) {
				if v < -1e-12 || v > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsRejects(t *testing.T) {
	s := testSpace()
	if s.Contains([]int{0}) {
		t.Fatal("wrong arity should not be contained")
	}
	if s.Contains([]int{101, 5}) {
		t.Fatal("out-of-range should not be contained")
	}
	if !s.Contains([]int{100, 64}) {
		t.Fatal("boundary point should be contained")
	}
}

func TestNormalizeEndpoints(t *testing.T) {
	s := testSpace()
	n := s.Normalize([]int{0, 1})
	if n[0] != 0 || n[1] != 0 {
		t.Fatalf("min point normalizes to %v, want [0 0]", n)
	}
	n = s.Normalize([]int{100, 64})
	if math.Abs(n[0]-1) > 1e-12 || math.Abs(n[1]-1) > 1e-12 {
		t.Fatalf("max point normalizes to %v, want [1 1]", n)
	}
}

func TestNormalizeConstantDim(t *testing.T) {
	s := Space{Params: []Param{{Name: "c", Min: 5, Max: 5}}}
	rng := rand.New(rand.NewSource(1))
	p := s.Sample(rng)
	if p[0] != 5 {
		t.Fatalf("constant dim sampled %d, want 5", p[0])
	}
	if s.Normalize(p)[0] != 0 {
		t.Fatal("constant dim should normalize to 0")
	}
}

func TestMinimizeFindsGoodPoint(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxIters = 40
	opt.InitPoints = 8
	opt.Seed = 3
	res, err := MinimizeContext(context.Background(), testSpace(), quadObj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 40 {
		t.Fatalf("history = %d evaluations, want 40", len(res.History))
	}
	if res.BestValue > 5 {
		t.Fatalf("BO best value %v at %v; want < 5 (minimum is 0 at (30,8))", res.BestValue, res.Best)
	}
}

// TestMinimizeCompetitiveWithRandom: with equal budget on a smooth
// function, BO's average best value across seeds must not be worse than
// random search by more than a small factor (the paper found the two reach
// similar accuracy, with BO cheaper in wall time). A hard 4-D objective
// makes the comparison meaningful.
func TestMinimizeCompetitiveWithRandom(t *testing.T) {
	s := Space{Params: []Param{
		{Name: "a", Min: 0, Max: 200},
		{Name: "b", Min: 0, Max: 200},
		{Name: "c", Min: 1, Max: 256, Log: true},
		{Name: "d", Min: 0, Max: 50},
	}}
	obj := func(p []int) (float64, error) {
		da := float64(p[0]-120) / 40
		db := float64(p[1]-60) / 40
		dc := math.Log(float64(p[2])/16) * 2
		dd := float64(p[3]-25) / 10
		return da*da + db*db + dc*dc + dd*dd, nil
	}
	var boSum, rsSum float64
	const trials = 5
	for seed := int64(0); seed < trials; seed++ {
		opt := DefaultOptions()
		opt.MaxIters = 40
		opt.InitPoints = 10
		opt.Seed = seed
		boRes, err := MinimizeContext(context.Background(), s, obj, opt)
		if err != nil {
			t.Fatal(err)
		}
		rsRes, err := RandomSearchContext(context.Background(), s, obj, 40, seed+1000)
		if err != nil {
			t.Fatal(err)
		}
		boSum += boRes.BestValue
		rsSum += rsRes.BestValue
	}
	if boSum > rsSum*1.5 {
		t.Fatalf("BO average best %.3f much worse than random search %.3f", boSum/trials, rsSum/trials)
	}
}

func TestMinimizeHandlesFailingEvaluations(t *testing.T) {
	var calls atomic.Int64
	obj := func(p []int) (float64, error) {
		if calls.Add(1)%3 == 0 {
			return 0, errors.New("transient failure")
		}
		return quadObj(p)
	}
	opt := DefaultOptions()
	opt.MaxIters = 20
	opt.InitPoints = 5
	res, err := MinimizeContext(context.Background(), testSpace(), obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestValue, 1) {
		t.Fatal("no successful evaluation recorded")
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
}

func TestMinimizeAllFailuresErrors(t *testing.T) {
	obj := func([]int) (float64, error) { return 0, errors.New("always fails") }
	opt := DefaultOptions()
	opt.MaxIters = 5
	if _, err := MinimizeContext(context.Background(), testSpace(), obj, opt); err == nil {
		t.Fatal("expected error when every evaluation fails")
	}
}

func TestMinimizeValidation(t *testing.T) {
	opt := DefaultOptions()
	if _, err := MinimizeContext(context.Background(), Space{}, quadObj, opt); err == nil {
		t.Fatal("expected error for empty space")
	}
	if _, err := MinimizeContext(context.Background(), testSpace(), nil, opt); err == nil {
		t.Fatal("expected error for nil objective")
	}
	opt.MaxIters = 0
	if _, err := MinimizeContext(context.Background(), testSpace(), quadObj, opt); err == nil {
		t.Fatal("expected error for zero iterations")
	}
}

func TestMinimizeParallelInitMatchesBudget(t *testing.T) {
	var calls atomic.Int64
	obj := func(p []int) (float64, error) {
		calls.Add(1)
		return quadObj(p)
	}
	opt := DefaultOptions()
	opt.MaxIters = 16
	opt.InitPoints = 8
	opt.Parallel = 4
	res, err := MinimizeContext(context.Background(), testSpace(), obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 16 {
		t.Fatalf("objective called %d times, want 16", got)
	}
	if len(res.History) != 16 {
		t.Fatalf("history length %d, want 16", len(res.History))
	}
}

func TestExpectedImprovement(t *testing.T) {
	// Zero std: improvement is deterministic.
	if got := expectedImprovement(1, 0.5, 0); got != 0.5 {
		t.Fatalf("EI = %v, want 0.5", got)
	}
	if got := expectedImprovement(1, 2, 0); got != 0 {
		t.Fatalf("EI = %v, want 0", got)
	}
	// Positive std: EI is positive even when mean is above best.
	if got := expectedImprovement(1, 2, 1); got <= 0 {
		t.Fatalf("EI = %v, want > 0 with uncertainty", got)
	}
	// EI grows with uncertainty.
	if expectedImprovement(1, 2, 2) <= expectedImprovement(1, 2, 0.5) {
		t.Fatal("EI should grow with std")
	}
}

func TestRandomSearchFindsDecentPoint(t *testing.T) {
	res, err := RandomSearchContext(context.Background(), testSpace(), quadObj, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue > 20 {
		t.Fatalf("random search best %v too poor", res.BestValue)
	}
	if _, err := RandomSearchContext(context.Background(), testSpace(), quadObj, 0, 1); err == nil {
		t.Fatal("expected error for zero iterations")
	}
}

func TestGridSearchCoversGrid(t *testing.T) {
	var calls atomic.Int64
	obj := func(p []int) (float64, error) {
		calls.Add(1)
		return quadObj(p)
	}
	res, err := GridSearchContext(context.Background(), testSpace(), obj, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 levels in dim x and up to 4 in log dim y.
	if calls.Load() < 12 || calls.Load() > 16 {
		t.Fatalf("grid evaluated %d points, want 12..16", calls.Load())
	}
	if res.Best == nil {
		t.Fatal("no best point")
	}
	if _, err := GridSearchContext(context.Background(), testSpace(), obj, 0); err == nil {
		t.Fatal("expected error for perDim 0")
	}
}

func TestGridLevelsDedupAndBounds(t *testing.T) {
	levels := gridLevels(Param{Name: "x", Min: 1, Max: 3}, 10)
	if len(levels) != 3 {
		t.Fatalf("levels = %v, want exactly {1,2,3}", levels)
	}
	logLevels := gridLevels(Param{Name: "y", Min: 1, Max: 1024, Log: true}, 6)
	for i := 1; i < len(logLevels); i++ {
		if logLevels[i] <= logLevels[i-1] {
			t.Fatalf("log levels not increasing: %v", logLevels)
		}
	}
	if logLevels[0] != 1 || logLevels[len(logLevels)-1] != 1024 {
		t.Fatalf("log levels should span the range: %v", logLevels)
	}
}

func TestLogSamplingBiasTowardSmall(t *testing.T) {
	// On a log scale over [1, 1024], about half the samples should fall
	// below 32 (the geometric midpoint).
	s := Space{Params: []Param{{Name: "y", Min: 1, Max: 1024, Log: true}}}
	rng := rand.New(rand.NewSource(9))
	below := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if s.Sample(rng)[0] <= 32 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("log sampling: %.2f below geometric midpoint, want ≈0.5", frac)
	}
}
