package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"sync"
	"time"

	"loaddynamics/internal/bo"
	"loaddynamics/internal/nn"
	"loaddynamics/internal/obs"
)

// Build counters (obs.Default): every database append is classified the
// same way candidate spans are, so an operator can read quarantine and
// timeout rates off one snapshot without a trace file.
var (
	candEvaluations  = obs.Default.Counter("core.build.evaluations")
	candTrained      = obs.Default.Counter("core.build.trained")
	candQuarantined  = obs.Default.Counter("core.build.quarantined")
	candDiverged     = obs.Default.Counter("core.build.diverged")
	candTimeouts     = obs.Default.Counter("core.build.timeouts")
	candReplayed     = obs.Default.Counter("core.build.replayed")
	candPruned       = obs.Default.Counter("core.build.pruned")
	candCancelled    = obs.Default.Counter("core.build.cancelled")
	candidateSeconds = obs.Default.Histogram("core.candidate_seconds")
)

// Config controls a LoadDynamics build.
type Config struct {
	// Space is the hyperparameter search space (Table III).
	Space bo.Space
	// MaxIters is maxIters of Fig. 6 — total hyperparameter sets examined
	// (the paper uses 100).
	MaxIters int
	// InitPoints is the size of the random design seeding the GP.
	InitPoints int
	// Seed makes the whole build deterministic.
	Seed int64
	// Train configures LSTM training; its BatchSize and Seed fields are
	// overridden per candidate.
	Train nn.TrainConfig
	// Scaler is the input normalizer name ("minmax" or "zscore").
	Scaler string
	// MaxTrainWindows caps the supervised training samples per candidate
	// to the most recent windows (0 = unlimited). Fine-interval workloads
	// produce thousands of windows; recent ones carry the current pattern,
	// and the cap bounds per-candidate training cost.
	MaxTrainWindows int
	// Parallel is the worker count for concurrent candidate evaluation
	// (each evaluation is an LSTM training run). With Parallel > 1 the
	// random initial design is evaluated concurrently and the BO phase
	// proposes constant-liar batches; Parallel <= 1 reproduces the exact
	// serial search.
	Parallel int
	// Batch overrides the number of points per BO proposal round when
	// Parallel > 1 (0 means one point per worker; see bo.Options.Batch).
	Batch int
	// PruneEpochs is the rung of one-rung successive halving inside each
	// batch the BO search evaluates together (the random design and every
	// constant-liar round): all of the batch's candidates train for
	// PruneEpochs epochs and are scored on the cross-validation split; the
	// best ⌈r/2⌉ of the r still training continue the same run to its end
	// and the rest are recorded as pruned, with their rung CV error. A
	// pruned candidate informs the GP but is never the build's best. 0
	// disables pruning and trains every candidate to the end, as the paper
	// does.
	PruneEpochs int
	// Acquisition selects the BO acquisition function (default: Expected
	// Improvement, the paper's choice).
	Acquisition bo.Acquisition
	// PriorObservations transfers completed-build outcomes from related
	// workloads into this build's hyperparameter search: each (point, CV
	// error) pair seeds the GP surrogate before — and counts against — the
	// random init budget (see bo.Options.PriorObservations). Nil or empty
	// leaves the search bit-identical to a cold build. Checkpoint resume
	// composes with priors only when the resumed run passes the same prior
	// set: proposals are deterministic in (seed, priors), so a changed set
	// changes the proposal stream and the checkpoint replay will retrain
	// instead of replaying.
	PriorObservations []bo.PriorObs
	// CandidateTimeout bounds each candidate's training time (0 =
	// unlimited). A candidate that exceeds it is recorded as failed and the
	// search continues; it does not abort the build.
	CandidateTimeout time.Duration
	// CheckpointPath, when non-empty, persists the model database to this
	// file (atomically) after every candidate evaluation, so a killed build
	// loses at most its in-flight candidates.
	CheckpointPath string
	// Resume warm-starts the build from an existing CheckpointPath file:
	// completed candidates are replayed into the database (and into the GP
	// surrogate) without retraining. Candidate training is deterministic
	// given the build seed, so a resumed serial build reproduces the
	// uninterrupted database exactly. Safe to set when no checkpoint file
	// exists yet.
	Resume bool
	// Trace, when non-nil, records per-candidate spans (core.candidate,
	// with replay/quarantine/timeout/cancellation outcomes) plus the BO
	// engine's round and proposal spans for this build. Export it with
	// obs.Trace.WriteFile (loadctl -trace-out). Tracing never changes the
	// search: a traced build is bit-identical to an untraced one.
	Trace *obs.Trace
	// TraceID stamps every span this build records (core.candidate,
	// core.materialize_best, bo.round, bo.propose, bo.eval) with a causal
	// trace ID — the fleet sets it to the trace of the observation batch
	// whose drift verdict triggered the rebuild, joining the span export
	// to the flight-recorder timeline. 0 leaves spans untraced. Like
	// Trace, it never changes the search.
	TraceID uint64
	// Logger receives structured build events (obs schema): candidate
	// lifecycle at Debug, quarantined candidates at Warn, build completion
	// at Info. Default: slog.Default().
	Logger *slog.Logger
}

// DefaultConfig returns the paper's configuration: the Table III default
// space and 100 optimization iterations.
func DefaultConfig() Config {
	return Config{
		Space:      DefaultSearchSpace(),
		MaxIters:   100,
		InitPoints: 10,
		Train:      nn.DefaultTrainConfig(),
		Scaler:     "minmax",
		Parallel:   1,
	}
}

// QuickConfig returns a reduced configuration that builds in seconds —
// used by tests and the scaled benchmark harness.
func QuickConfig() Config {
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 25
	tc.Patience = 5
	return Config{
		Space:       ScaledSpace(24, 16, 2, 64),
		MaxIters:    8,
		InitPoints:  4,
		Train:       tc,
		Scaler:      "minmax",
		Parallel:    4,
		PruneEpochs: 3,
	}
}

// ErrPruned is the error of a candidate that successive halving stopped at
// its rung (Config.PruneEpochs): it did not fail, but it did not finish
// training either, so it can never be the build's best.
var ErrPruned = errors.New("pruned at the rung by successive halving")

// Candidate is one model-database entry: an examined hyperparameter set and
// its cross-validation error (step 3 of Fig. 6 stores these pairs).
type Candidate struct {
	HP Hyperparams
	// ValError is the cross-validation error; for a pruned candidate, the
	// error at its rung.
	ValError float64
	// Err is non-nil when the candidate did not finish training: it failed
	// (and is quarantined) or it was pruned (ErrPruned).
	Err error

	// ranked marks a candidate that was still training at its rung and was
	// ranked against its batch there, with CV error rungErr. Replay hands
	// the rung error back to the search so a resumed batch ranks the same.
	ranked  bool
	rungErr float64
}

// Diverged reports whether the candidate was quarantined because its
// training produced non-finite loss or weights (as opposed to an
// infrastructure failure or timeout).
func (c Candidate) Diverged() bool { return errors.Is(c.Err, nn.ErrDiverged) }

// Pruned reports whether successive halving stopped the candidate at its
// rung.
func (c Candidate) Pruned() bool { return errors.Is(c.Err, ErrPruned) }

// Result is a finished LoadDynamics build.
type Result struct {
	// Best is the selected workload predictor f.
	Best *Model
	// Database holds every examined candidate, in evaluation order: with
	// Parallel > 1 that is the order concurrent candidates finished in. A
	// pruned candidate is recorded when it is pruned, before the survivors
	// of its batch finish.
	Database []Candidate
	// proposed is Database in the search's proposal order (nil when the
	// search returned no history).
	proposed []Candidate
}

// RoundsToBest is the 1-based proposal index of the first candidate that
// reached the database's minimum validation error — the "how many search
// rounds did the win cost" number the fleet's warm-start metrics track. It
// counts in proposal order, so it does not depend on which of a batch's
// concurrent candidates finished first, and skips pruned candidates, whose
// rung errors were never the build's to win. Returns 0 when no candidate
// trained successfully.
func (r *Result) RoundsToBest() int {
	db := r.proposed
	if db == nil {
		db = r.Database
	}
	best := -1
	for i, c := range db {
		if c.Err == nil && (best < 0 || c.ValError < db[best].ValError) {
			best = i
		}
	}
	return best + 1
}

// Framework runs the LoadDynamics workflow.
type Framework struct {
	cfg Config
	log *slog.Logger
	// afterEval, when set (tests only), runs after every database append
	// with the database size — the hook deterministic cancellation tests
	// use to interrupt a build at an exact point.
	afterEval func(n int)
	// beforeRecord, when set (tests only), runs after a candidate finishes
	// training and before it is recorded — the hook that lets a test choose
	// the order concurrent candidates complete in.
	beforeRecord func(hp Hyperparams)
}

// New returns a framework with the given configuration.
func New(cfg Config) (*Framework, error) {
	if err := cfg.Space.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.MaxIters <= 0 {
		return nil, fmt.Errorf("core: MaxIters must be positive, got %d", cfg.MaxIters)
	}
	if cfg.Scaler == "" {
		cfg.Scaler = "minmax"
	}
	if cfg.Train.Epochs <= 0 {
		cfg.Train = nn.DefaultTrainConfig()
	}
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	return &Framework{cfg: cfg, log: lg.With(obs.LogComponent, "core")}, nil
}

// buildState is the shared mutable state of one build run: the growing
// model database, the incumbent, the checkpoint replay queue and the first
// checkpoint-write error (sticky — later writes are skipped once persisting
// fails).
type buildState struct {
	mu          sync.Mutex
	res         *Result
	best        float64
	fingerprint string
	prior       map[Hyperparams][]Candidate
	cpErr       error
}

// newBuildState prepares a run, loading the checkpoint replay queue when
// the configuration asks to resume.
func (f *Framework) newBuildState() (*buildState, error) {
	st := &buildState{res: &Result{}, best: math.Inf(1), fingerprint: f.cfg.fingerprint()}
	if f.cfg.Resume && f.cfg.CheckpointPath != "" {
		prior, err := loadCheckpoint(f.cfg.CheckpointPath, st.fingerprint)
		if err != nil {
			return nil, err
		}
		if len(prior) > 0 {
			st.prior = make(map[Hyperparams][]Candidate, len(prior))
			for _, c := range prior {
				st.prior[c.HP] = append(st.prior[c.HP], c)
			}
		}
	}
	return st, nil
}

// recordLocked appends c to the database, persists the checkpoint and fires
// the test hook. Callers hold st.mu.
func (f *Framework) recordLocked(st *buildState, c Candidate) {
	st.res.Database = append(st.res.Database, c)
	if f.cfg.CheckpointPath != "" && st.cpErr == nil {
		st.cpErr = saveCheckpoint(f.cfg.CheckpointPath, st.fingerprint, st.res.Database)
	}
	if f.afterEval != nil {
		f.afterEval(len(st.res.Database))
	}
}

// buildObjective returns the search's Trials for one run. Every candidate
// goes through one trial: replay a checkpointed outcome without retraining,
// or train (honoring ctx and the per-candidate timeout, pausing at the rung
// when PruneEpochs > 0), and quarantine failures in the database instead
// of aborting the search.
func (f *Framework) buildObjective(ctx context.Context, st *buildState, train, validate []float64) bo.Trials {
	return func(point []int) bo.Trial {
		hp := pointToHP(point)
		t := &trial{f: f, st: st, ctx: ctx, train: train, validate: validate, hp: hp,
			sp: f.cfg.Trace.Start("core.candidate").SetTrace(f.cfg.TraceID)}
		t.sp.SetAttr("hp", hp.String())
		// Resume replay: proposals are deterministic given the seed, so a
		// resumed search re-proposes the checkpointed candidates in order;
		// their recorded outcomes stand in for retraining and warm-start
		// the GP surrogate. The winner's weights are rebuilt by
		// materializeBest.
		st.mu.Lock()
		if q := st.prior[hp]; len(q) > 0 {
			c := q[0]
			t.replay = &c
			st.prior[hp] = q[1:]
		}
		st.mu.Unlock()
		return t
	}
}

// trial is one candidate's evaluation: a bo.Trial that replays, trains,
// pauses at the rung, is pruned, and records its outcome.
type trial struct {
	f               *Framework
	st              *buildState
	ctx             context.Context
	train, validate []float64
	hp              Hyperparams
	sp              *obs.Span

	replay *Candidate // checkpointed outcome standing in for training
	job    *trainJob  // training paused at the rung
	paused bool       // Rung returned a rung error and the search decides next
	rung   float64    // CV error at the rung
}

// Rung trains the candidate for PruneEpochs epochs and returns its CV
// error there. A candidate whose run ends first (early stopping, Epochs,
// a failure) is recorded and reported done; with PruneEpochs 0 every
// candidate runs to its end here.
func (t *trial) Rung() (float64, bool, error) {
	if c := t.replay; c != nil {
		if c.ranked {
			t.paused, t.rung = true, c.rungErr
			return t.rung, false, nil
		}
		v, err := t.replayed()
		return v, true, err
	}
	if t.f.cfg.PruneEpochs <= 0 {
		v, err := t.Finish()
		return v, true, err
	}
	job, err := t.newJob()
	if err == nil {
		err = job.advance(t.ctx, t.f.cfg.PruneEpochs)
	}
	if err == nil && !job.run.Done() {
		if t.rung, err = job.valError(); err == nil {
			t.job, t.paused = job, true
			return t.rung, false, nil
		}
	}
	v, err := t.complete(job, err)
	return v, true, err
}

// Finish runs the candidate to its end from wherever it is. A candidate
// paused at the rung of a cancelled build is cancelled, like an in-flight
// one.
func (t *trial) Finish() (float64, error) {
	if t.paused && t.ctx.Err() != nil {
		t.job = nil
		return t.complete(nil, fmt.Errorf("core: training: %w", t.ctx.Err()))
	}
	if c := t.replay; c != nil && !c.Pruned() {
		return t.replayed()
	}
	// A pruned replay the search now keeps (its batch ranked differently)
	// trains afresh.
	job := t.job
	var err error
	if job == nil {
		job, err = t.newJob()
	}
	if err == nil {
		err = job.advance(t.ctx, t.f.cfg.Train.Epochs)
	}
	t.job = nil
	return t.complete(job, err)
}

// Prune stops the candidate at its rung and records it with its rung CV
// error.
func (t *trial) Prune() {
	if c := t.replay; c != nil && c.Pruned() {
		t.replayed()
		return
	}
	if t.job != nil {
		t.job.run.Stop()
		candidateSeconds.Observe(t.job.spent.Seconds())
		t.job = nil
	}
	if t.replay == nil && t.f.beforeRecord != nil {
		t.f.beforeRecord(t.hp)
	}
	t.sp.SetAttr("epochs", t.f.cfg.PruneEpochs)
	t.record(Candidate{HP: t.hp, ValError: t.rung, Err: ErrPruned, ranked: true, rungErr: t.rung}, nil, false)
}

// newJob starts the candidate's training run.
func (t *trial) newJob() (*trainJob, error) {
	cfg := t.f.cfg
	return newTrainJob(t.train, t.validate, t.hp, cfg.Train, cfg.Scaler,
		cfg.MaxTrainWindows, candidateSeed(cfg.Seed, t.hp), cfg.CandidateTimeout)
}

// replayed records the checkpointed outcome in place of training.
func (t *trial) replayed() (float64, error) {
	candReplayed.Inc()
	t.sp.SetAttr("replayed", true)
	if t.replay.Pruned() {
		t.sp.SetAttr("epochs", t.f.cfg.PruneEpochs)
	}
	return t.record(*t.replay, nil, true)
}

// complete records a trained candidate that ended — finished, failed or
// cancelled with the build.
func (t *trial) complete(job *trainJob, err error) (float64, error) {
	var model *Model
	if job != nil {
		candidateSeconds.Observe(job.spent.Seconds())
	}
	if err == nil {
		model, err = job.finish()
	}
	if t.f.beforeRecord != nil {
		t.f.beforeRecord(t.hp)
	}
	c := Candidate{HP: t.hp, Err: err, ranked: t.paused, rungErr: t.rung}
	if model != nil {
		c.ValError = model.ValError
	}
	return t.record(c, model, false)
}

// record appends the candidate's outcome to the database and ends its span.
// A build-level cancellation of a trained candidate is not a property of
// the candidate: it stays out of the database and the checkpoint so a
// resumed run re-evaluates the point properly, and its span is classified
// cancelled — never failed — so the non-cancelled spans of an interrupted
// trace line up with the uninterrupted run's.
func (t *trial) record(c Candidate, model *Model, replayed bool) (float64, error) {
	f, st := t.f, t.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if !replayed && c.Err != nil && t.ctx.Err() != nil && (errors.Is(c.Err, context.Canceled) || errors.Is(c.Err, context.DeadlineExceeded)) {
		candCancelled.Inc()
		t.sp.SetAttr("error", c.Err.Error())
		t.sp.EndOutcome(obs.OutcomeCancelled)
		return 0, c.Err
	}
	f.recordLocked(st, c)
	f.finishCandidate(t.sp, c)
	if model != nil {
		candTrained.Inc()
		if model.ValError < st.best {
			st.best = model.ValError
			st.res.Best = model
		}
	}
	if c.Err != nil && !c.Pruned() {
		return 0, c.Err
	}
	return c.ValError, nil
}

// candidateOutcome classifies a database candidate's error into a span
// outcome. Pruning is not a failure; divergence is checked before the
// context classes — a diverged candidate is quarantined for its own
// behaviour, not for running out of time — and a timeout (per-candidate
// deadline) is distinct from both a failure and a build-level cancellation.
func candidateOutcome(err error) string {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrPruned):
		return obs.OutcomePruned
	case errors.Is(err, nn.ErrDiverged):
		return obs.OutcomeDiverged
	case errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return obs.OutcomeCancelled
	default:
		return obs.OutcomeFailed
	}
}

// finishCandidate ends a candidate span with the database entry's outcome,
// bumps the matching build counters, and logs the candidate: quarantined
// candidates at Warn (an operator signal — the search absorbed a bad
// point), everything else, pruned candidates included, at Debug.
func (f *Framework) finishCandidate(sp *obs.Span, c Candidate) {
	candEvaluations.Inc()
	outcome := candidateOutcome(c.Err)
	switch outcome {
	case obs.OutcomePruned:
		candPruned.Inc()
	case obs.OutcomeDiverged:
		candQuarantined.Inc()
		candDiverged.Inc()
	case obs.OutcomeTimeout:
		candQuarantined.Inc()
		candTimeouts.Inc()
	case obs.OutcomeFailed:
		candQuarantined.Inc()
	}
	switch {
	case outcome == obs.OutcomePruned:
		sp.SetAttr("val_error", c.ValError)
		f.log.Debug("candidate pruned", "hp", c.HP.String(), "val_error", c.ValError)
	case c.Err != nil:
		sp.SetAttr("error", c.Err.Error())
		f.log.Warn("candidate quarantined",
			"hp", c.HP.String(), "outcome", outcome, "error", c.Err.Error())
	default:
		sp.SetAttr("val_error", c.ValError)
		f.log.Debug("candidate trained", "hp", c.HP.String(), "val_error", c.ValError)
	}
	sp.EndOutcome(outcome)
}

// finishBuild maps the search outcome to Build's contract: on cancellation
// the partial result (every completed candidate) is returned alongside the
// error; otherwise the best candidate is materialized — retrained
// deterministically when it was replayed from a checkpoint.
func (f *Framework) finishBuild(ctx context.Context, st *buildState, searchErr error, train, validate []float64) (*Result, error) {
	if searchErr != nil {
		if errors.Is(searchErr, context.Canceled) || errors.Is(searchErr, context.DeadlineExceeded) {
			return st.res, fmt.Errorf("core: build interrupted: %w", searchErr)
		}
		return nil, fmt.Errorf("core: hyperparameter search: %w", searchErr)
	}
	if st.cpErr != nil {
		return nil, st.cpErr
	}
	if err := f.materializeBest(ctx, st, train, validate); err != nil {
		return nil, err
	}
	f.log.Info("build complete",
		"candidates", len(st.res.Database),
		"hp", st.res.Best.HP.String(),
		"val_error", st.res.Best.ValError)
	return st.res, nil
}

// materializeBest ensures res.Best holds the trained weights of the
// database minimum. When the winner came from the checkpoint replay its
// weights were never built in this process; candidate training is
// deterministic given the build seed, so retraining it reproduces the model
// an uninterrupted run would have selected.
func (f *Framework) materializeBest(ctx context.Context, st *buildState, train, validate []float64) error {
	res := st.res
	bestIdx := -1
	for i, c := range res.Database {
		if c.Err == nil && (bestIdx < 0 || c.ValError < res.Database[bestIdx].ValError) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return errors.New("core: no candidate trained successfully")
	}
	want := res.Database[bestIdx]
	if res.Best != nil && res.Best.ValError <= want.ValError {
		return nil
	}
	sp := f.cfg.Trace.Start("core.materialize_best").SetTrace(f.cfg.TraceID)
	sp.SetAttr("hp", want.HP.String())
	model, err := trainModel(ctx, train, validate, want.HP, f.cfg.Train, f.cfg.Scaler,
		f.cfg.MaxTrainWindows, candidateSeed(f.cfg.Seed, want.HP), f.cfg.CandidateTimeout)
	sp.EndErr(err)
	if err != nil {
		return fmt.Errorf("core: rematerializing best candidate %s: %w", want.HP, err)
	}
	res.Best = model
	return nil
}

// Build executes the full Fig. 6 workflow on a workload's training and
// cross-validation JARs and returns the best predictor found together with
// the model database.
func (f *Framework) Build(train, validate []float64) (*Result, error) {
	return f.BuildContext(context.Background(), train, validate)
}

// BuildContext is Build honoring cancellation and deadlines: the context is
// threaded through the BO loop into each candidate's LSTM training, so a
// cancelled build stops within one mini-batch step. On cancellation the
// partial Result is returned with an error wrapping ctx.Err(); when a
// CheckpointPath is configured, every completed candidate has already been
// persisted and a later run with Resume picks up where this one stopped.
func (f *Framework) BuildContext(ctx context.Context, train, validate []float64) (*Result, error) {
	return f.buildWithSearch(ctx, train, validate, func(trials bo.Trials) (*bo.Result, error) {
		return bo.MinimizeTrials(ctx, f.cfg.Space, trials, f.boOptions())
	})
}

// boOptions maps the build configuration onto the BO engine's options.
func (f *Framework) boOptions() bo.Options {
	opt := bo.DefaultOptions()
	opt.MaxIters = f.cfg.MaxIters
	opt.InitPoints = f.cfg.InitPoints
	opt.Seed = f.cfg.Seed
	opt.Parallel = f.cfg.Parallel
	opt.Batch = f.cfg.Batch
	opt.Acq = f.cfg.Acquisition
	opt.PriorObservations = f.cfg.PriorObservations
	opt.Trace = f.cfg.Trace
	opt.TraceID = f.cfg.TraceID
	return opt
}

// BuildRandom runs the workflow with random search in place of Bayesian
// Optimization — the comparator discussed in Section III-A.
func (f *Framework) BuildRandom(train, validate []float64) (*Result, error) {
	return f.BuildRandomContext(context.Background(), train, validate)
}

// BuildRandomContext is BuildRandom with cancellation, checkpointing and
// resume (same contract as BuildContext).
func (f *Framework) BuildRandomContext(ctx context.Context, train, validate []float64) (*Result, error) {
	return f.buildWithSearch(ctx, train, validate, func(trials bo.Trials) (*bo.Result, error) {
		return bo.RandomSearchContext(ctx, f.cfg.Space, trials.Objective(), f.cfg.MaxIters, f.cfg.Seed)
	})
}

// BuildGrid runs the workflow with grid search (perDim levels per
// dimension) in place of Bayesian Optimization.
func (f *Framework) BuildGrid(train, validate []float64, perDim int) (*Result, error) {
	return f.BuildGridContext(context.Background(), train, validate, perDim)
}

// BuildGridContext is BuildGrid with cancellation, checkpointing and resume
// (same contract as BuildContext).
func (f *Framework) BuildGridContext(ctx context.Context, train, validate []float64, perDim int) (*Result, error) {
	return f.buildWithSearch(ctx, train, validate, func(trials bo.Trials) (*bo.Result, error) {
		return bo.GridSearchContext(ctx, f.cfg.Space, trials.Objective(), perDim)
	})
}

func (f *Framework) buildWithSearch(ctx context.Context, train, validate []float64, search func(bo.Trials) (*bo.Result, error)) (*Result, error) {
	if len(train) < 4 || len(validate) == 0 {
		return nil, fmt.Errorf("core: need non-trivial train (%d) and validate (%d) sets", len(train), len(validate))
	}
	st, err := f.newBuildState()
	if err != nil {
		return nil, err
	}
	res, searchErr := search(f.buildObjective(ctx, st, train, validate))
	if res != nil {
		st.res.proposed = proposalOrder(st.res.Database, res.History)
	}
	return f.finishBuild(ctx, st, searchErr, train, validate)
}

// proposalOrder returns the database, which concurrent candidates append
// to in completion order, in the search's proposal order (its History).
// History entries with no database entry (a candidate cancelled with the
// build) are skipped; database entries the history does not name keep
// their relative order at the end.
func proposalOrder(db []Candidate, history []bo.Evaluation) []Candidate {
	byHP := make(map[Hyperparams][]int, len(db))
	for i, c := range db {
		byHP[c.HP] = append(byHP[c.HP], i)
	}
	out := make([]Candidate, 0, len(db))
	used := make([]bool, len(db))
	for _, e := range history {
		hp := pointToHP(e.Point)
		if q := byHP[hp]; len(q) > 0 {
			out = append(out, db[q[0]])
			used[q[0]] = true
			byHP[hp] = q[1:]
		}
	}
	for i, c := range db {
		if !used[i] {
			out = append(out, c)
		}
	}
	return out
}

// BruteForce trains a model for every point of a perDim-level grid over the
// space and returns the best — the paper's LSTMBruteForce reference, which
// bounds how well any search strategy can do within the space (at grid
// resolution).
func BruteForce(cfg Config, train, validate []float64, perDim int) (*Result, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return f.BuildGrid(train, validate, perDim)
}

// TrainSingle trains one model with explicit hyperparameters — used by the
// Fig. 5 sweep and the examples.
func TrainSingle(cfg Config, train, validate []float64, hp Hyperparams) (*Model, error) {
	if cfg.Scaler == "" {
		cfg.Scaler = "minmax"
	}
	if cfg.Train.Epochs <= 0 {
		cfg.Train = nn.DefaultTrainConfig()
	}
	return trainModel(context.Background(), train, validate, hp, cfg.Train, cfg.Scaler,
		cfg.MaxTrainWindows, candidateSeed(cfg.Seed, hp), cfg.CandidateTimeout)
}

// candidateSeed derives a deterministic per-candidate seed from the build
// seed and the hyperparameters.
func candidateSeed(seed int64, hp Hyperparams) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d/%d", seed, hp.HistoryLen, hp.CellSize, hp.Layers, hp.BatchSize)
	return int64(h.Sum64())
}
