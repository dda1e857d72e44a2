package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/bo"
)

// resumeConfig is a small serial build: Parallel=1 keeps evaluation order
// deterministic so a resumed database can be compared entry-by-entry
// against an uninterrupted one.
func resumeConfig(seed int64) Config {
	cfg := QuickConfig()
	cfg.Seed = seed
	cfg.Train = quickTrain()
	cfg.MaxIters = 6
	cfg.InitPoints = 3
	cfg.Parallel = 1
	return cfg
}

func buildWith(t *testing.T, cfg Config, ctx context.Context, hook func(*Framework)) (*Result, error) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		hook(f)
	}
	series := seasonal(300, 10, 5)
	return f.BuildContext(ctx, series[:200], series[200:250])
}

// TestBuildCancelResumeReproducesUninterrupted is the acceptance criterion:
// a build killed mid-run and restarted with Resume produces the same model
// database and the same best model as a build that was never interrupted.
func TestBuildCancelResumeReproducesUninterrupted(t *testing.T) {
	series := seasonal(300, 10, 5)
	train := series[:200]

	// Reference: uninterrupted, no checkpointing.
	ref, err := buildWith(t, resumeConfig(7), context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel from the afterEval hook once three candidates
	// are in the database — a deterministic stand-in for kill -9 mid-build.
	cp := filepath.Join(t.TempDir(), "build.ckpt")
	cfg := resumeConfig(7)
	cfg.CheckpointPath = cp
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := buildWith(t, cfg, ctx, func(f *Framework) {
		f.afterEval = func(n int) {
			if n == 3 {
				cancel()
			}
		}
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted build error = %v, want context.Canceled", err)
	}
	if partial == nil || len(partial.Database) != 3 {
		t.Fatalf("interrupted build kept %d candidates, want 3", len(partial.Database))
	}

	// Resume: same configuration, warm-started from the checkpoint.
	cfg2 := resumeConfig(7)
	cfg2.CheckpointPath = cp
	cfg2.Resume = true
	res, err := buildWith(t, cfg2, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Database) != len(ref.Database) {
		t.Fatalf("resumed database has %d entries, reference %d", len(res.Database), len(ref.Database))
	}
	for i := range ref.Database {
		r, g := ref.Database[i], res.Database[i]
		if r.HP != g.HP || math.Abs(r.ValError-g.ValError) > 1e-12 || (r.Err == nil) != (g.Err == nil) {
			t.Fatalf("database entry %d differs: reference {%s %.6f err=%v}, resumed {%s %.6f err=%v}",
				i, r.HP, r.ValError, r.Err, g.HP, g.ValError, g.Err)
		}
	}
	if ref.Best.HP != res.Best.HP || math.Abs(ref.Best.ValError-res.Best.ValError) > 1e-12 {
		t.Fatalf("best differs: reference %s %.6f, resumed %s %.6f",
			ref.Best.HP, ref.Best.ValError, res.Best.HP, res.Best.ValError)
	}
	// The rematerialized winner must carry identical weights, not just
	// identical metadata: its forecasts must match the reference's exactly.
	want, err := ref.Best.PredictSteps(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Best.PredictSteps(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("forecast %d: resumed best predicts %v, reference %v", i, got[i], want[i])
		}
	}
}

// TestBuildResumeOfCompleteCheckpointReplaysEverything resumes from a
// finished run: every candidate must replay from the checkpoint (no
// retraining except rematerializing the winner) and the database must match.
func TestBuildResumeOfCompleteCheckpointReplaysEverything(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "build.ckpt")
	cfg := resumeConfig(11)
	cfg.CheckpointPath = cp
	first, err := buildWith(t, cfg, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := resumeConfig(11)
	cfg2.CheckpointPath = cp
	cfg2.Resume = true
	trained := 0
	second, err := buildWith(t, cfg2, context.Background(), func(f *Framework) {
		// Count fresh evaluations by watching database growth beyond the
		// replayed prefix — all entries should come from the checkpoint.
		f.afterEval = func(n int) { trained = n }
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Database) != len(first.Database) {
		t.Fatalf("replayed database has %d entries, want %d", len(second.Database), len(first.Database))
	}
	for i := range first.Database {
		if first.Database[i].HP != second.Database[i].HP ||
			math.Abs(first.Database[i].ValError-second.Database[i].ValError) > 1e-12 {
			t.Fatalf("entry %d differs after full replay", i)
		}
	}
	if second.Best.HP != first.Best.HP {
		t.Fatalf("best HP differs: %s vs %s", second.Best.HP, first.Best.HP)
	}
	if trained != len(first.Database) {
		t.Fatalf("afterEval saw %d appends, want %d", trained, len(first.Database))
	}
}

// TestBuildResumeRejectsForeignCheckpoint: resuming under a different
// configuration must fail loudly, not stitch incomparable databases.
func TestBuildResumeRejectsForeignCheckpoint(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "build.ckpt")
	cfg := resumeConfig(3)
	cfg.CheckpointPath = cp
	if _, err := buildWith(t, cfg, context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	cfg2 := resumeConfig(4) // different seed → different fingerprint
	cfg2.CheckpointPath = cp
	cfg2.Resume = true
	_, err := buildWith(t, cfg2, context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "different build configuration") {
		t.Fatalf("resume with mismatched config: err = %v, want fingerprint rejection", err)
	}
}

// TestBuildResumeWithoutCheckpointStartsFresh: Resume on a first run (no
// checkpoint file yet) must behave like a normal build.
func TestBuildResumeWithoutCheckpointStartsFresh(t *testing.T) {
	cfg := resumeConfig(9)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "none.ckpt")
	cfg.Resume = true
	res, err := buildWith(t, cfg, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || len(res.Database) != cfg.MaxIters {
		t.Fatalf("fresh resume: best=%v database=%d, want full build of %d", res.Best, len(res.Database), cfg.MaxIters)
	}
	// The checkpoint must now exist for a future resume.
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}

// TestBuildPreCancelledContext: a context cancelled before the build starts
// produces an immediate interruption error with an empty partial result.
func TestBuildPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := buildWith(t, resumeConfig(2), ctx, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Database) != 0 {
		t.Fatalf("pre-cancelled build produced %d candidates, want 0", len(res.Database))
	}
}

// TestBuildCandidateTimeoutQuarantines: an absurdly small per-candidate
// timeout fails every candidate, but each failure is quarantined in the
// checkpointed database rather than aborting the build mid-search, and the
// final error is a search failure — not a context error, because the build
// itself was never cancelled.
func TestBuildCandidateTimeoutQuarantines(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "build.ckpt")
	cfg := resumeConfig(6)
	cfg.CandidateTimeout = time.Nanosecond
	cfg.CheckpointPath = cp
	_, err := buildWith(t, cfg, context.Background(), nil)
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a non-context search failure", err)
	}
	db, lerr := loadCheckpoint(cp, cfg.fingerprint())
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(db) == 0 {
		t.Fatal("no quarantined candidates were checkpointed")
	}
	for _, c := range db {
		if c.Err == nil {
			t.Fatalf("candidate %s recorded as success under a 1ns timeout", c.HP)
		}
	}
}

// TestBuildParallelCheckpointResume: with Parallel > 1 the database order is
// scheduler-dependent, so resume only guarantees the same set of evaluated
// values; the build must still complete and select a database minimum.
func TestBuildParallelCheckpointResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "build.ckpt")
	cfg := resumeConfig(13)
	cfg.Parallel = 4
	cfg.CheckpointPath = cp
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := buildWith(t, cfg, ctx, func(f *Framework) {
		f.afterEval = func(n int) {
			if n == 2 {
				cancel()
			}
		}
	}); err == nil {
		t.Fatal("expected interruption error")
	}
	cfg2 := resumeConfig(13)
	cfg2.Parallel = 4
	cfg2.CheckpointPath = cp
	cfg2.Resume = true
	res, err := buildWith(t, cfg2, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("parallel resume produced no best model")
	}
	for _, c := range res.Database {
		if c.Err == nil && c.ValError < res.Best.ValError-1e-9 {
			t.Fatalf("best %.4f is not the database minimum %.4f", res.Best.ValError, c.ValError)
		}
	}
}

// TestRoundsToBestCountsProposals pins RoundsToBest to the search's
// proposal order under Parallel > 1: a build whose concurrent candidates
// are forced to finish in reverse proposal order reports the same
// RoundsToBest as the BO history implies, and its proposal-ordered view of
// the database equals that history. Pruning is off so every candidate
// finishes (TestPrunedBuildIgnoresCompletionOrder covers it on).
func TestRoundsToBestCountsProposals(t *testing.T) {
	cfg := resumeConfig(21)
	cfg.Parallel = 4
	cfg.MaxIters = 8
	cfg.InitPoints = 4
	cfg.PruneEpochs = 0
	series := seasonal(300, 10, 5)
	build := func(hook func(*Framework)) (*Result, []Hyperparams) {
		t.Helper()
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			hook(f)
		}
		var proposed []Hyperparams
		res, err := f.buildWithSearch(context.Background(), series[:200], series[200:250],
			func(trials bo.Trials) (*bo.Result, error) {
				r, err := bo.MinimizeTrials(context.Background(), cfg.Space, trials, f.boOptions())
				if r != nil {
					for _, e := range r.History {
						proposed = append(proposed, pointToHP(e.Point))
					}
				}
				return r, err
			})
		if err != nil {
			t.Fatal(err)
		}
		return res, proposed
	}
	hps := func(db []Candidate) []Hyperparams {
		out := make([]Hyperparams, len(db))
		for i, c := range db {
			out[i] = c.HP
		}
		return out
	}

	first, proposed := build(nil)
	if len(proposed) != cfg.MaxIters {
		t.Fatalf("search proposed %d points, want %d", len(proposed), cfg.MaxIters)
	}
	// The round the history implies: the first proposal reaching the
	// minimum validation error.
	valErr := map[Hyperparams]float64{}
	for _, c := range first.Database {
		if c.Err != nil {
			t.Fatalf("candidate %s failed: %v", c.HP, c.Err)
		}
		valErr[c.HP] = c.ValError
	}
	want := 0
	for i, hp := range proposed {
		if want == 0 || valErr[hp] < valErr[proposed[want-1]] {
			want = i + 1
		}
	}

	// Second build: each batch of Parallel concurrent candidates records in
	// reverse proposal order. A candidate at position p of that completion
	// order waits until p candidates have been recorded.
	var completion []Hyperparams
	for lo := 0; lo < len(proposed); lo += cfg.Parallel {
		for i := lo + cfg.Parallel - 1; i >= lo; i-- {
			completion = append(completion, proposed[i])
		}
	}
	var mu sync.Mutex
	slots := map[Hyperparams][]int{}
	for p, hp := range completion {
		slots[hp] = append(slots[hp], p)
	}
	recorded := make([]chan struct{}, len(completion)+1)
	for i := range recorded {
		recorded[i] = make(chan struct{})
	}
	close(recorded[0])
	second, reproposed := build(func(f *Framework) {
		f.beforeRecord = func(hp Hyperparams) {
			mu.Lock()
			q := slots[hp]
			if len(q) == 0 {
				mu.Unlock()
				t.Errorf("unexpected candidate %s", hp)
				return
			}
			slots[hp] = q[1:]
			mu.Unlock()
			select {
			case <-recorded[q[0]]:
			case <-time.After(time.Minute):
				t.Errorf("candidate %s waited a minute for its turn", hp)
			}
		}
		f.afterEval = func(n int) { close(recorded[n]) }
	})

	if !slices.Equal(reproposed, proposed) {
		t.Fatalf("completion order changed the proposals:\n%v\n%v", reproposed, proposed)
	}
	if got := hps(second.Database); !slices.Equal(got, completion) {
		t.Fatalf("database order %v, want the forced completion order %v", got, completion)
	}
	for name, res := range map[string]*Result{"unhooked": first, "reversed": second} {
		if got := hps(res.proposed); !slices.Equal(got, proposed) {
			t.Fatalf("%s build: proposal-ordered database %v, want the BO history %v", name, got, proposed)
		}
		if got := res.RoundsToBest(); got != want {
			t.Fatalf("%s build: RoundsToBest %d, want %d (the BO history's first minimum)", name, got, want)
		}
	}
}
