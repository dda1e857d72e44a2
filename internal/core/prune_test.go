package core

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/bo"
	"loaddynamics/internal/obs"
)

// pruneConfig is a batched build under QuickConfig's pruning: batches of
// four (the random design and one constant-liar round), two pruned in each.
func pruneConfig(parallel int) Config {
	cfg := resumeConfig(21)
	cfg.Parallel = parallel
	cfg.Batch = 4
	cfg.MaxIters = 8
	cfg.InitPoints = 4
	return cfg
}

// searchBuild runs a BO build and returns its result with the BO history.
func searchBuild(t *testing.T, cfg Config, ctx context.Context, hook func(*Framework)) (*Result, []bo.Evaluation, error) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		hook(f)
	}
	series := seasonal(300, 10, 5)
	var history []bo.Evaluation
	res, err := f.buildWithSearch(ctx, series[:200], series[200:250],
		func(trials bo.Trials) (*bo.Result, error) {
			r, err := bo.MinimizeTrials(ctx, cfg.Space, trials, f.boOptions())
			if r != nil {
				history = r.History
			}
			return r, err
		})
	return res, history, err
}

// historyKey projects a BO history onto comparable values.
type historyKey struct {
	HP     Hyperparams
	Value  float64
	Pruned bool
	Failed bool
}

func historyKeys(h []bo.Evaluation) []historyKey {
	out := make([]historyKey, len(h))
	for i, e := range h {
		out[i] = historyKey{pointToHP(e.Point), e.Value, e.Pruned, e.Err != nil}
	}
	return out
}

func databaseKeys(db []Candidate) []historyKey {
	out := make([]historyKey, len(db))
	for i, c := range db {
		out[i] = historyKey{c.HP, c.ValError, c.Pruned(), c.Err != nil && !c.Pruned()}
	}
	return out
}

// sameBest fails unless both builds promote the same weights: identical
// hyperparameters and bit-identical forecasts.
func sameBest(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if ref.Best.HP != got.Best.HP || ref.Best.ValError != got.Best.ValError {
		t.Fatalf("%s: best %s %v, reference %s %v", name, got.Best.HP, got.Best.ValError, ref.Best.HP, ref.Best.ValError)
	}
	series := seasonal(300, 10, 5)
	want, err := ref.Best.PredictSteps(series[:200], 4)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Best.PredictSteps(series[:200], 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want, have) {
		t.Fatalf("%s: promoted model forecasts %v, reference %v", name, have, want)
	}
}

// TestPrunedBuildIgnoresCompletionOrder: a pruned build ranks by (rung CV
// error, proposal index), so its proposal-ordered database, BO history and
// promoted weights are identical for Parallel 2 and 4 and when every
// batch's candidates are forced to record in reverse proposal order.
func TestPrunedBuildIgnoresCompletionOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full builds in -short mode")
	}
	ref, refHist, err := searchBuild(t, pruneConfig(4), context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(refHist) != 8 {
		t.Fatalf("history has %d evaluations, want 8", len(refHist))
	}
	for b := 0; b < len(refHist); b += 4 {
		pruned := 0
		for _, e := range refHist[b : b+4] {
			if e.Pruned {
				pruned++
			}
		}
		if pruned != 2 {
			t.Fatalf("batch %d pruned %d of 4 candidates, want 2", b/4, pruned)
		}
	}
	if got, want := databaseKeys(ref.proposed), historyKeys(refHist); !slices.Equal(got, want) {
		t.Fatalf("proposal-ordered database %v, BO history %v", got, want)
	}
	for _, c := range ref.Database {
		if c.Pruned() && c.HP == ref.Best.HP {
			t.Fatalf("pruned candidate %s promoted", c.HP)
		}
	}

	// Reverse completion: in each batch the pruned candidates record first
	// (at the ranking, in proposal order), then the survivors in reverse
	// proposal order. A candidate at position p of that order waits until
	// p candidates have been recorded.
	var completion []Hyperparams
	for b := 0; b < len(refHist); b += 4 {
		batch := refHist[b : b+4]
		for _, e := range batch {
			if e.Pruned {
				completion = append(completion, pointToHP(e.Point))
			}
		}
		for i := len(batch) - 1; i >= 0; i-- {
			if !batch[i].Pruned {
				completion = append(completion, pointToHP(batch[i].Point))
			}
		}
	}
	slot := map[Hyperparams]int{}
	for p, hp := range completion {
		slot[hp] = p
	}
	recorded := make([]chan struct{}, len(completion)+1)
	for i := range recorded {
		recorded[i] = make(chan struct{})
	}
	close(recorded[0])
	var mu sync.Mutex
	reversed, revHist, err := searchBuild(t, pruneConfig(4), context.Background(), func(f *Framework) {
		f.beforeRecord = func(hp Hyperparams) {
			mu.Lock()
			p, ok := slot[hp]
			mu.Unlock()
			if !ok {
				t.Errorf("unexpected candidate %s", hp)
				return
			}
			select {
			case <-recorded[p]:
			case <-time.After(time.Minute):
				t.Errorf("candidate %s waited a minute for its turn", hp)
			}
		}
		f.afterEval = func(n int) { close(recorded[n]) }
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := databaseKeys(reversed.Database); !slices.Equal(func() []Hyperparams {
		out := make([]Hyperparams, len(got))
		for i, k := range got {
			out[i] = k.HP
		}
		return out
	}(), completion) {
		t.Fatalf("database order %v, want the forced completion order %v", got, completion)
	}

	two, twoHist, err := searchBuild(t, pruneConfig(2), context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]struct {
		res  *Result
		hist []bo.Evaluation
	}{"reversed": {reversed, revHist}, "parallel 2": {two, twoHist}} {
		if got, want := historyKeys(run.hist), historyKeys(refHist); !slices.Equal(got, want) {
			t.Fatalf("%s: BO history %v, reference %v", name, got, want)
		}
		if got, want := databaseKeys(run.res.proposed), databaseKeys(ref.proposed); !slices.Equal(got, want) {
			t.Fatalf("%s: proposal-ordered database %v, reference %v", name, got, want)
		}
		if run.res.RoundsToBest() != ref.RoundsToBest() {
			t.Fatalf("%s: RoundsToBest %d, reference %d", name, run.res.RoundsToBest(), ref.RoundsToBest())
		}
		sameBest(t, name, ref, run.res)
	}
}

// TestPrunedCandidatesOutcome: pruned candidates get their own span outcome
// (with the epochs they trained), their own counter, no quarantine, no
// Warn log, and a checkpoint flag that replay turns back into the same
// pruned evaluation.
func TestPrunedCandidatesOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("full builds in -short mode")
	}
	prunedBefore, quarantinedBefore := candPruned.Value(), candQuarantined.Value()
	timedBefore := candidateSeconds.Count()
	cp := filepath.Join(t.TempDir(), "build.ckpt")
	tr := obs.NewTrace()
	cfg := pruneConfig(4)
	cfg.CheckpointPath = cp
	cfg.Trace = tr
	var warns bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&warns, &slog.HandlerOptions{Level: slog.LevelWarn}))
	res, err := buildWith(t, cfg, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var pruned []Candidate
	for _, c := range res.Database {
		if c.Pruned() {
			pruned = append(pruned, c)
		}
	}
	if len(pruned) != 4 {
		t.Fatalf("%d pruned candidates, want 2 per batch of 4", len(pruned))
	}
	if got := candPruned.Value() - prunedBefore; got != int64(len(pruned)) {
		t.Fatalf("core.build.pruned advanced by %d, want %d", got, len(pruned))
	}
	if got := candidateSeconds.Count() - timedBefore; got != int64(len(res.Database)) {
		t.Fatalf("core.candidate_seconds observed %d trainings, want all %d, pruned included", got, len(res.Database))
	}
	if got := candQuarantined.Value() - quarantinedBefore; got != 0 {
		t.Fatalf("pruning quarantined %d candidates", got)
	}
	if warns.Len() != 0 {
		t.Fatalf("Warn logs for a build whose only unfinished candidates were pruned:\n%s", warns.String())
	}
	spans := 0
	for _, sp := range tr.Named("core.candidate") {
		if sp.Outcome != obs.OutcomePruned {
			continue
		}
		spans++
		if e, _ := sp.Attr("epochs").(int); e != cfg.PruneEpochs {
			t.Fatalf("pruned span epochs = %v, want %d", sp.Attr("epochs"), cfg.PruneEpochs)
		}
	}
	if spans != len(pruned) {
		t.Fatalf("%d pruned spans, want %d", spans, len(pruned))
	}
	for i, c := range res.proposed {
		if c.Pruned() && (c.HP == res.Best.HP || res.RoundsToBest() == i+1) {
			t.Fatalf("pruned candidate %s is the best (RoundsToBest %d)", c.HP, res.RoundsToBest())
		}
	}

	db, err := loadCheckpoint(cp, cfg.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := databaseKeys(db), databaseKeys(res.Database); !slices.Equal(got, want) {
		t.Fatalf("checkpoint %v, database %v", got, want)
	}

	// Full replay: every candidate, pruned ones included, comes back from
	// the checkpoint with its outcome and the same span.
	cfg2 := pruneConfig(4)
	cfg2.CheckpointPath = cp
	cfg2.Resume = true
	tr2 := obs.NewTrace()
	cfg2.Trace = tr2
	replayedBefore := candReplayed.Value()
	res2, err := buildWith(t, cfg2, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := candReplayed.Value() - replayedBefore; got != int64(len(res.Database)) {
		t.Fatalf("replayed %d candidates, want all %d", got, len(res.Database))
	}
	if got, want := databaseKeys(res2.proposed), databaseKeys(res.proposed); !slices.Equal(got, want) {
		t.Fatalf("replayed database %v, original %v", got, want)
	}
	sameBest(t, "replayed", res, res2)
}

// TestPrunedBuildResumesMidBatch: a parallel build cancelled as the first
// pruned candidate of the random design is recorded — its survivors still
// training — resumes to the uninterrupted build's database and weights.
func TestPrunedBuildResumesMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full builds in -short mode")
	}
	ref, _, err := searchBuild(t, pruneConfig(4), context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "build.ckpt")
	cfg := pruneConfig(4)
	cfg.CheckpointPath = cp
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, _, err := searchBuild(t, cfg, ctx, func(f *Framework) {
		f.afterEval = func(n int) {
			if n == 1 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted build error = %v, want context.Canceled", err)
	}
	for _, c := range partial.Database {
		if !c.Pruned() {
			t.Fatalf("interrupted build recorded %s (%v); only the batch's pruned candidates precede the cancel", c.HP, c.Err)
		}
	}
	cfg2 := pruneConfig(4)
	cfg2.CheckpointPath = cp
	cfg2.Resume = true
	res, _, err := searchBuild(t, cfg2, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := databaseKeys(res.proposed), databaseKeys(ref.proposed); !slices.Equal(got, want) {
		t.Fatalf("resumed database %v, uninterrupted %v", got, want)
	}
	sameBest(t, "resumed", ref, res)
}

// TestPruneEpochsInFingerprint: the rung, and with pruning on the round
// size, decide candidate values, so they are part of the fingerprint.
func TestPruneEpochsInFingerprint(t *testing.T) {
	base := pruneConfig(4)
	off := base
	off.PruneEpochs = 0
	if base.fingerprint() == off.fingerprint() {
		t.Fatal("PruneEpochs does not change the fingerprint")
	}
	two := base
	two.Parallel = 2 // Batch 4 keeps the round size
	if base.fingerprint() != two.fingerprint() {
		t.Fatal("worker count changed the fingerprint at a fixed round size")
	}
	small := base
	small.Batch = 2
	if base.fingerprint() == small.fingerprint() {
		t.Fatal("round size does not change a pruned build's fingerprint")
	}
	offSmall := off
	offSmall.Batch = 2
	if off.fingerprint() != offSmall.fingerprint() {
		t.Fatal("round size changed an unpruned build's fingerprint")
	}
}

// TestCheckpointMismatchIsTyped: every checkpoint a build cannot resume —
// foreign fingerprint, other format version, undecodable — wraps
// ErrCheckpointMismatch, the one error the fleet clears the checkpoint
// and retries on; a missing file is a fresh start, not a mismatch.
func TestCheckpointMismatchIsTyped(t *testing.T) {
	dir := t.TempDir()
	fp := pruneConfig(4).fingerprint()
	for name, body := range map[string]string{
		"fingerprint": `{"version":2,"fingerprint":"0000000000000000","entries":[]}`,
		"version":     `{"version":1,"fingerprint":"` + fp + `","entries":[]}`,
		"decode":      `{"version":`,
	} {
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpoint(path, fp); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: err = %v, want ErrCheckpointMismatch", name, err)
		}
	}
	if db, err := loadCheckpoint(filepath.Join(dir, "missing.ckpt"), fp); err != nil || db != nil {
		t.Fatalf("missing checkpoint: (%v, %v), want (nil, nil)", db, err)
	}
}
