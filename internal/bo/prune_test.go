package bo

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/obs"
)

// trialLog records what the engine did with each point's trial.
type trialLog struct {
	mu       sync.Mutex
	rung     map[string]int
	finished map[string]int
	pruned   map[string]int
}

func newTrialLog() *trialLog {
	return &trialLog{rung: map[string]int{}, finished: map[string]int{}, pruned: map[string]int{}}
}

func (l *trialLog) bump(m map[string]int, p []int) {
	l.mu.Lock()
	m[key(p)]++
	l.mu.Unlock()
}

// fakeTrial pauses at its rung with value quadObj+10 and finishes on
// quadObj+100 — a pruned point's rung value is often lower than every final
// value, which is exactly the case that must not capture the incumbent.
// Points with an even x end before their rung when early is set. A jitter
// sleep scrambles completion order under Parallel > 1.
type fakeTrial struct {
	p      []int
	log    *trialLog
	early  bool
	jitter bool
}

func (t *fakeTrial) sleep() {
	if t.jitter {
		time.Sleep(time.Duration((t.p[0]*7919+t.p[1]*104729)%5) * time.Millisecond)
	}
}

func (t *fakeTrial) Rung() (float64, bool, error) {
	t.log.bump(t.log.rung, t.p)
	t.sleep()
	v, _ := quadObj(t.p)
	if t.early && t.p[0]%2 == 0 {
		return v + 100, true, nil
	}
	return v + 10, false, nil
}

func (t *fakeTrial) Finish() (float64, error) {
	t.log.bump(t.log.finished, t.p)
	t.sleep()
	v, _ := quadObj(t.p)
	return v + 100, nil
}

func (t *fakeTrial) Prune() { t.log.bump(t.log.pruned, t.p) }

func fakeTrials(log *trialLog, early, jitter bool) Trials {
	return func(p []int) Trial { return &fakeTrial{p: p, log: log, early: early, jitter: jitter} }
}

func pruneOptions(parallel int) Options {
	opt := DefaultOptions()
	opt.MaxIters = 12
	opt.InitPoints = 4
	opt.Seed = 5
	opt.Parallel = parallel
	opt.Batch = 4
	opt.Candidates = 64
	return opt
}

// TestPrunedEvaluationsNeverBest: each batch of four prunes the two worst
// at the rung, pruned evaluations keep their rung value and feed the
// surrogate, but the best point, its value and the EI incumbent come only
// from evaluations that ran to their end.
func TestPrunedEvaluationsNeverBest(t *testing.T) {
	log := newTrialLog()
	res, err := MinimizeTrials(context.Background(), testSpace(), fakeTrials(log, false, false), pruneOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 12 {
		t.Fatalf("history has %d evaluations, want 12", len(res.History))
	}
	bestFinished := math.Inf(1)
	for b := 0; b < len(res.History); b += 4 {
		batch := res.History[b : b+4]
		var rungs, kept []float64
		for _, e := range batch {
			v, _ := quadObj(e.Point)
			if e.Pruned {
				if e.Value != v+10 {
					t.Fatalf("pruned %v recorded %v, want its rung value %v", e.Point, e.Value, v+10)
				}
				rungs = append(rungs, e.Value)
				continue
			}
			if e.Value != v+100 {
				t.Fatalf("survivor %v recorded %v, want its final value %v", e.Point, e.Value, v+100)
			}
			kept = append(kept, v+10)
			bestFinished = math.Min(bestFinished, e.Value)
		}
		if len(rungs) != 2 {
			t.Fatalf("batch %d pruned %d of 4, want 2", b/4, len(rungs))
		}
		for _, k := range kept {
			for _, r := range rungs {
				if k > r {
					t.Fatalf("batch %d kept rung value %v over pruned %v", b/4, k, r)
				}
			}
		}
	}
	if res.BestValue != bestFinished {
		t.Fatalf("BestValue %v, want the best finished value %v", res.BestValue, bestFinished)
	}
	for _, e := range res.History {
		if reflect.DeepEqual(e.Point, res.Best) && e.Pruned {
			t.Fatalf("Best %v is a pruned point", res.Best)
		}
	}
	for k, n := range log.pruned {
		if log.finished[k] != 0 || n != 1 {
			t.Fatalf("point %s pruned %d times and finished %d times", k, n, log.finished[k])
		}
	}

	s := fitSurrogate(testSpace(), res.History, pruneOptions(4))
	if s == nil {
		t.Fatal("no surrogate")
	}
	if s.best != bestFinished {
		t.Fatalf("EI incumbent value %v, want the best finished value %v", s.best, bestFinished)
	}
	// The surrogate interpolates its (low-noise) observations, pruned rung
	// values included.
	for _, e := range res.History {
		if !e.Pruned {
			continue
		}
		if mean, _ := s.model.Predict(testSpace().Normalize(e.Point)); math.Abs(mean-e.Value) > 0.01*e.Value {
			t.Fatalf("surrogate predicts %v at pruned %v, its rung value is %v", mean, e.Point, e.Value)
		}
	}
}

// TestPruneRankingIgnoresCompletionOrder: with a fixed batch size the
// batched search is identical for 2, 3 and 4 workers, even when evaluation
// times scramble the order evaluations reach their rung and their end.
// (Parallel 1 is the serial search, which proposes one point per round.)
func TestPruneRankingIgnoresCompletionOrder(t *testing.T) {
	var ref *Result
	for _, workers := range []int{2, 3, 4} {
		res, err := MinimizeTrials(context.Background(), testSpace(), fakeTrials(newTrialLog(), false, true), pruneOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.History, ref.History) {
			t.Fatalf("Parallel %d history differs from Parallel 2:\n%v\n%v", workers, res.History, ref.History)
		}
	}
}

// TestEarlyEndedTrialsAreNeverPruned: an evaluation that ends before its
// rung is complete; only the still-running ones are ranked, and ⌈r/2⌉ of
// those r survive.
func TestEarlyEndedTrialsAreNeverPruned(t *testing.T) {
	log := newTrialLog()
	pts := [][]int{{2, 8}, {31, 8}, {50, 8}, {71, 8}, {90, 8}}
	evals := evaluateAll(context.Background(), pts, fakeTrials(log, true, false), 2, nil, 0)
	if len(evals) != len(pts) {
		t.Fatalf("%d evaluations, want %d", len(evals), len(pts))
	}
	var pruned []int
	for _, e := range evals {
		if e.Pruned {
			pruned = append(pruned, e.Point[0])
		}
	}
	// {2,8} and {50,8} and {90,8} end early; of {31,8} and {71,8} the worse
	// rung value ({71,8}) is pruned.
	if !reflect.DeepEqual(pruned, []int{71}) {
		t.Fatalf("pruned x = %v, want [71]", pruned)
	}
	if n := log.finished[key([]int{31, 8})]; n != 1 {
		t.Fatalf("survivor finished %d times", n)
	}
	for _, p := range [][]int{{2, 8}, {50, 8}, {90, 8}} {
		if log.finished[key(p)] != 0 || log.pruned[key(p)] != 0 {
			t.Fatalf("early-ended %v was resumed or pruned", p)
		}
	}
}

// TestBatchCancelledAtRungPrunesNothing: a batch whose build is cancelled
// before the ranking finishes every paused evaluation (which then reports
// the cancellation) instead of pruning on a partial comparison.
func TestBatchCancelledAtRungPrunesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	log := newTrialLog()
	inner := fakeTrials(log, false, false)
	rungs := 0
	trials := func(p []int) Trial {
		return &cancelAtRung{Trial: inner(p), after: func() {
			if rungs++; rungs == 2 {
				cancel()
			}
		}}
	}
	pts := [][]int{{10, 8}, {20, 8}, {30, 8}, {40, 8}}
	evals := evaluateAll(ctx, pts, trials, 1, nil, 0)
	if len(evals) != 2 {
		t.Fatalf("%d evaluations, want the 2 started before the cancel", len(evals))
	}
	for _, e := range evals {
		if e.Pruned {
			t.Fatalf("%v pruned under a cancelled batch", e.Point)
		}
	}
	if len(log.pruned) != 0 || len(log.finished) != 2 {
		t.Fatalf("pruned %v finished %v, want nothing pruned and both paused finished", log.pruned, log.finished)
	}
}

type cancelAtRung struct {
	Trial
	after func()
}

func (c *cancelAtRung) Rung() (float64, bool, error) {
	v, done, err := c.Trial.Rung()
	c.after()
	return v, done, err
}

// TestTrialsObjectiveRunsToEnd: the Objective form of Trials never pauses.
func TestTrialsObjectiveRunsToEnd(t *testing.T) {
	log := newTrialLog()
	res, err := RandomSearchContext(context.Background(), testSpace(), fakeTrials(log, false, false).Objective(), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.History {
		v, _ := quadObj(e.Point)
		if e.Value != v+100 || e.Pruned {
			t.Fatalf("%v: value %v pruned %v, want the final value %v", e.Point, e.Value, e.Pruned, v+100)
		}
	}
	if len(log.rung) != 0 || len(log.pruned) != 0 {
		t.Fatal("a plain objective paused at a rung")
	}
}

// TestPrunedSearchTrace: bo.eval spans of pruned evaluations end with the
// pruned outcome and every bo.round counts its pruned evaluations apart
// from the ones that finished.
func TestPrunedSearchTrace(t *testing.T) {
	tr := obs.NewTrace()
	opt := pruneOptions(4)
	opt.Trace = tr
	res, err := MinimizeTrials(context.Background(), testSpace(), fakeTrials(newTrialLog(), false, false), opt)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, e := range res.History {
		if e.Pruned {
			pruned++
		}
	}
	evalPruned := 0
	for _, sp := range tr.Named("bo.eval") {
		if sp.Outcome == obs.OutcomePruned {
			evalPruned++
		}
	}
	roundPruned, roundOK, evaluated := 0, 0, 0
	for _, sp := range tr.Named("bo.round") {
		n, _ := sp.Attr(obs.OutcomePruned).(int)
		ok, _ := sp.Attr(obs.OutcomeOK).(int)
		ev, _ := sp.Attr("evaluated").(int)
		roundPruned, roundOK, evaluated = roundPruned+n, roundOK+ok, evaluated+ev
	}
	if pruned != 6 || evalPruned != pruned || roundPruned != pruned {
		t.Fatalf("history prunes %d, bo.eval spans %d, bo.round counts %d — want 6 each", pruned, evalPruned, roundPruned)
	}
	if roundOK != len(res.History)-pruned || evaluated != len(res.History) {
		t.Fatalf("bo.round counts %d ok of %d evaluated, history has %d finished of %d", roundOK, evaluated, len(res.History)-pruned, len(res.History))
	}
}

func TestRungLessOrdersNaNLast(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		a, b float64
		want bool
	}{{1, 2, true}, {2, 1, false}, {1, 1, false}, {1, nan, true}, {nan, 1, false}, {nan, nan, false}, {math.Inf(1), nan, true}} {
		if got := rungLess(c.a, c.b); got != c.want {
			t.Errorf("rungLess(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMinimizeTrialsRejectsNil(t *testing.T) {
	if _, err := MinimizeTrials(context.Background(), testSpace(), nil, pruneOptions(1)); err == nil {
		t.Fatal("nil Trials accepted")
	}
}
