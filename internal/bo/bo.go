// Package bo implements the hyperparameter search engine of LoadDynamics:
// Bayesian Optimization over an integer box space using a Gaussian-process
// surrogate and the Expected Improvement acquisition function (Mockus
// 1977), as in Section III-A of the paper. Random search and grid search —
// the alternatives the paper experimented with and rejected — are provided
// as comparators for the ablation benchmarks.
package bo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"loaddynamics/internal/gp"
	"loaddynamics/internal/obs"
)

// Param is one integer hyperparameter dimension with an inclusive range.
// Log-scaled parameters are sampled and modelled in log space, which suits
// ranges like history length 1–512.
type Param struct {
	Name     string
	Min, Max int
	Log      bool
}

// Space is the hyperparameter search space (the "predefined search space of
// possible hyperparameters" of Fig. 6).
type Space struct {
	Params []Param
}

// Validate checks the space itself is well formed.
func (s Space) Validate() error {
	if len(s.Params) == 0 {
		return errors.New("bo: empty search space")
	}
	for _, p := range s.Params {
		if p.Min > p.Max {
			return fmt.Errorf("bo: parameter %q has Min %d > Max %d", p.Name, p.Min, p.Max)
		}
		if p.Log && p.Min <= 0 {
			return fmt.Errorf("bo: log parameter %q needs Min >= 1, got %d", p.Name, p.Min)
		}
	}
	return nil
}

// Contains reports whether point is inside the space.
func (s Space) Contains(point []int) bool {
	if len(point) != len(s.Params) {
		return false
	}
	for i, p := range s.Params {
		if point[i] < p.Min || point[i] > p.Max {
			return false
		}
	}
	return true
}

// Sample draws a uniform random point (uniform in log space for log
// parameters).
func (s Space) Sample(rng *rand.Rand) []int {
	out := make([]int, len(s.Params))
	for i, p := range s.Params {
		if p.Min == p.Max {
			out[i] = p.Min
			continue
		}
		if p.Log {
			lo, hi := math.Log(float64(p.Min)), math.Log(float64(p.Max))
			v := math.Exp(lo + rng.Float64()*(hi-lo))
			out[i] = clampInt(int(math.Round(v)), p.Min, p.Max)
		} else {
			out[i] = p.Min + rng.Intn(p.Max-p.Min+1)
		}
	}
	return out
}

// Normalize maps an integer point to [0,1]^d for the GP surrogate.
func (s Space) Normalize(point []int) []float64 {
	out := make([]float64, len(s.Params))
	for i, p := range s.Params {
		if p.Min == p.Max {
			out[i] = 0
			continue
		}
		if p.Log {
			lo, hi := math.Log(float64(p.Min)), math.Log(float64(p.Max))
			out[i] = (math.Log(float64(point[i])) - lo) / (hi - lo)
		} else {
			out[i] = float64(point[i]-p.Min) / float64(p.Max-p.Min)
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Objective evaluates one hyperparameter point and returns the value to
// minimize (for LoadDynamics: the cross-validation MAPE). An error marks
// the point as failed; the search continues with other points.
type Objective func(point []int) (float64, error)

// Trial is one objective evaluation that the engine can pause once, at its
// rung, to compare it with the other evaluations of its batch — the single
// decision point of one-rung successive halving. The engine calls Rung and
// then, unless Rung reported the evaluation done, exactly one of Finish or
// Prune; a batch of one point skips the rung and calls Finish alone.
type Trial interface {
	// Rung runs the evaluation up to its rung and returns its value there.
	// done reports that the evaluation ended first; value and err are then
	// final and the evaluation is never pruned.
	Rung() (value float64, done bool, err error)
	// Finish runs the evaluation to its end and returns its final value.
	Finish() (float64, error)
	// Prune stops a paused evaluation for good: its rung value is what the
	// search records for it.
	Prune()
}

// Trials starts the Trial of one point: the multi-fidelity form of an
// Objective.
type Trials func(point []int) Trial

// Objective returns ts as a plain Objective that runs every evaluation to
// its end.
func (ts Trials) Objective() Objective {
	return func(point []int) (float64, error) { return ts(point).Finish() }
}

// trials returns obj as Trials whose evaluations end before any rung, so
// nothing is ever pruned.
func (obj Objective) trials() Trials {
	return func(point []int) Trial { return objectiveTrial{obj, point} }
}

// objectiveTrial is one evaluation of a plain Objective.
type objectiveTrial struct {
	obj   Objective
	point []int
}

func (t objectiveTrial) Rung() (float64, bool, error) {
	v, err := t.obj(t.point)
	return v, true, err
}
func (t objectiveTrial) Finish() (float64, error) { return t.obj(t.point) }
func (objectiveTrial) Prune()                     {}

// Evaluation is one explored point with its objective value. A pruned
// evaluation was stopped at its rung: Value is its rung value, which
// conditions the surrogate but never becomes the best point or the
// acquisition's incumbent.
type Evaluation struct {
	Point  []int
	Value  float64
	Err    error
	Pruned bool
}

// Result summarizes a finished search. Best and BestValue come from
// evaluations that ran to their end, never from pruned ones.
type Result struct {
	Best      []int
	BestValue float64
	History   []Evaluation
}

// PriorObs is one transferred observation seeding the GP surrogate: a
// hyperparameter point and the objective value it achieved on a *related*
// task — for LoadDynamics, a fingerprint-neighbor workload's tuned
// hyperparameters and the cross-validation error they reached there.
// Priors are pseudo-observations: they condition the surrogate and the
// improvement baseline but are never evaluated by this search and never
// appear in Result.History.
type PriorObs struct {
	Point []int
	Value float64
}

// Options control the Bayesian Optimization loop.
type Options struct {
	MaxIters   int   // total objective evaluations, the paper's maxIters (100)
	InitPoints int   // random evaluations before the GP takes over
	Candidates int   // candidate pool size for the EI argmax
	Seed       int64 //
	Noise      float64
	// Parallel is the worker count for objective evaluations. It covers
	// both the random init phase and, when > 1, the GP-guided phase, which
	// then proposes Batch points per round via the constant-liar q-EI
	// heuristic and evaluates them concurrently. With Parallel <= 1 the
	// GP-guided phase is strictly serial and reproduces the original
	// one-point-per-iteration loop exactly (same RNG stream, same history).
	Parallel int
	// Batch is the number of points proposed per constant-liar round when
	// Parallel > 1 (0 defaults to Parallel). Ignored in serial mode.
	Batch int
	Acq   Acquisition // acquisition function (default EI, the paper's choice)
	// PriorObservations warm-starts the search with observations
	// transferred from related tasks. Each valid prior (inside the space,
	// finite value, first occurrence of its point) seeds the GP surrogate
	// before — and counts against — the random init budget: the random
	// design shrinks to max(InitPoints−len(priors), 0) points, and prior
	// points are excluded from both the random init redraw set and the
	// GP-phase duplicate redraw set, so a transferred point is never spent
	// on a second evaluation. With nil or empty priors the search is
	// bit-identical to one without this field (pinned by the golden
	// regression): no RNG draw and no proposal is perturbed.
	PriorObservations []PriorObs
	// Trace, when non-nil, records bo.round, bo.propose and bo.eval spans
	// (EI-argmax timing, per-evaluation outcomes). Cancelled and timed-out
	// evaluations are classified distinctly from failures so a
	// checkpoint-resumed search produces an equivalent trace. Tracing never
	// touches the RNG stream: a traced search is bit-identical to an
	// untraced one.
	Trace *obs.Trace
	// TraceID stamps every recorded span with a causal trace ID (0 =
	// untraced) — the fleet threads through the trace of the observation
	// batch that triggered this search. Never touches the RNG stream.
	TraceID uint64
}

// DefaultOptions mirrors the paper's setup: 100 iterations, of which the
// first batch is a random design.
func DefaultOptions() Options {
	return Options{MaxIters: 100, InitPoints: 8, Candidates: 512, Noise: 1e-4, Parallel: 1}
}

// MinimizeContext runs Bayesian Optimization and returns the best point
// found, honoring cancellation and deadlines. The context is checked
// between objective evaluations (serial mode) or between proposal rounds
// (batched mode); in-flight evaluations run to completion.
// On cancellation it returns the partial Result — every completed evaluation
// is in History — together with an error wrapping ctx.Err(), so callers can
// checkpoint progress before bailing out.
func MinimizeContext(ctx context.Context, space Space, obj Objective, opt Options) (*Result, error) {
	if obj == nil {
		return nil, errors.New("bo: nil objective")
	}
	return MinimizeTrials(ctx, space, obj.trials(), opt)
}

// MinimizeTrials is MinimizeContext over Trials: every batch the search
// evaluates together — the random design and each constant-liar round —
// runs one rung of successive halving (see evaluateAll). Trials that end
// before their rung make it identical to MinimizeContext.
func MinimizeTrials(ctx context.Context, space Space, trials Trials, opt Options) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if trials == nil {
		return nil, errors.New("bo: nil objective")
	}
	if opt.MaxIters <= 0 {
		return nil, fmt.Errorf("bo: MaxIters must be positive, got %d", opt.MaxIters)
	}
	if opt.InitPoints <= 0 {
		opt.InitPoints = 1
	}
	if opt.InitPoints > opt.MaxIters {
		opt.InitPoints = opt.MaxIters
	}
	if opt.Candidates <= 0 {
		opt.Candidates = 256
	}
	if !opt.Acq.valid() {
		return nil, fmt.Errorf("bo: unknown acquisition %d", int(opt.Acq))
	}

	opt.PriorObservations = validPriors(space, opt.PriorObservations)

	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{BestValue: math.Inf(1)}
	seen := map[string]bool{}
	// Transferred prior points join the seen set up front: the random init
	// redraw loop below and the GP-phase duplicate redraw both skip them,
	// so a prior point is never evaluated a second time (it was already
	// paid for on the source task).
	for _, po := range opt.PriorObservations {
		seen[key(po.Point)] = true
	}

	// Phase 1: random initial design (optionally parallel — objective
	// evaluations are LSTM trainings and dominate wall time). Priors count
	// against the init budget: they give the surrogate its footing, which
	// is exactly what the random design is for.
	want := randomInitCount(opt.InitPoints, len(opt.PriorObservations))
	initPts := make([][]int, 0, want)
	for len(initPts) < want {
		p := space.Sample(rng)
		k := key(p)
		if seen[k] && len(seen) < spaceSizeCap(space) {
			continue
		}
		seen[k] = true
		initPts = append(initPts, p)
	}
	rsp := opt.Trace.Start("bo.round").SetTrace(opt.TraceID).SetAttr("phase", "init")
	evals := evaluateAll(ctx, initPts, trials, opt.Parallel, opt.Trace, opt.TraceID)
	endRound(rsp, evals)
	for _, e := range evals {
		record(res, e)
	}

	// Phase 2: GP-guided proposals — one point at a time in serial mode
	// (bit-identical to the original loop), or Batch points per
	// constant-liar round evaluated concurrently when Parallel > 1.
	if ctx.Err() == nil {
		if opt.Parallel > 1 {
			minimizeBatched(ctx, space, trials, opt, rng, res, seen)
		} else {
			minimizeSerial(ctx, space, trials, opt, rng, res, seen)
		}
	}

	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("bo: search interrupted after %d evaluations: %w", len(res.History), err)
	}
	if math.IsInf(res.BestValue, 1) {
		return nil, errors.New("bo: every objective evaluation failed")
	}
	return res, nil
}

// minimizeSerial is the original one-proposal-per-iteration GP loop. For a
// fixed seed it reproduces the paper runs exactly (the determinism contract
// of Parallel <= 1).
func minimizeSerial(ctx context.Context, space Space, trials Trials, opt Options, rng *rand.Rand, res *Result, seen map[string]bool) {
	sizeCap := spaceSizeCap(space)
	for round := 0; len(res.History) < opt.MaxIters; round++ {
		if ctx.Err() != nil {
			return
		}
		rsp := opt.Trace.Start("bo.round").SetTrace(opt.TraceID).SetAttr("round", round)
		psp := opt.Trace.Start("bo.propose").SetTrace(opt.TraceID)
		next := proposeEI(space, res.History, rng, opt)
		psp.SetAttr("argmax", next != nil).End()
		if next == nil {
			next = space.Sample(rng)
		}
		k := key(next)
		// Duplicate proposal: explore randomly instead, re-drawing until
		// the point is actually new (bounded like Phase 1 so tiny spaces
		// cannot loop forever).
		for seen[k] && len(seen) < sizeCap {
			next = space.Sample(rng)
			k = key(next)
		}
		seen[k] = true
		e := evalPoint(next, trials, opt.Trace, opt.TraceID)
		endRound(rsp, []Evaluation{e})
		record(res, e)
	}
}

// minimizeBatched runs Phase 2 with the constant-liar q-EI heuristic: each
// round fits the surrogate once, proposes a batch of q points (inserting the
// "lie" ymin after each pick via an O(n²) incremental GP update), then
// evaluates the whole batch concurrently on opt.Parallel workers.
func minimizeBatched(ctx context.Context, space Space, trials Trials, opt Options, rng *rand.Rand, res *Result, seen map[string]bool) {
	q := opt.Batch
	if q <= 0 {
		q = opt.Parallel
	}
	for round := 0; len(res.History) < opt.MaxIters; round++ {
		if ctx.Err() != nil {
			return
		}
		size := q
		if remaining := opt.MaxIters - len(res.History); size > remaining {
			size = remaining
		}
		rsp := opt.Trace.Start("bo.round").SetTrace(opt.TraceID).SetAttr("round", round).SetAttr("batch", size)
		psp := opt.Trace.Start("bo.propose").SetTrace(opt.TraceID).SetAttr("batch", size)
		pts := proposeBatch(space, res.History, rng, opt, size, seen)
		psp.End()
		for _, p := range pts {
			seen[key(p)] = true
		}
		evals := evaluateAll(ctx, pts, trials, opt.Parallel, opt.Trace, opt.TraceID)
		endRound(rsp, evals)
		for _, e := range evals {
			record(res, e)
		}
	}
}

// evalPoint runs one evaluation to its end under a bo.eval span.
func evalPoint(p []int, trials Trials, tr *obs.Trace, traceID uint64) Evaluation {
	sp := tr.Start("bo.eval").SetTrace(traceID).SetAttr("point", fmt.Sprint(p))
	v, err := trials(p).Finish()
	sp.EndErr(err)
	return Evaluation{Point: p, Value: v, Err: err}
}

// endRound finishes a bo.round span with per-class outcome counts.
// Cancelled, timed-out and pruned evaluations are counted apart from
// failures — the classes a checkpoint-resumed run must reproduce.
func endRound(sp *obs.Span, evals []Evaluation) {
	if sp == nil {
		return
	}
	counts := map[string]int{}
	for _, e := range evals {
		if e.Pruned {
			counts[obs.OutcomePruned]++
		} else {
			counts[obs.ErrOutcome(e.Err)]++
		}
	}
	for class, n := range counts {
		sp.SetAttr(class, n)
	}
	sp.SetAttr("evaluated", len(evals))
	sp.End()
}

// surrogate bundles the fitted GP with the incumbent context the acquisition
// needs.
type surrogate struct {
	model     *gp.GP
	best      float64 // lowest successful objective value
	incumbent []int   // point that achieved best
}

// fitSurrogate fits a GP to the transferred priors plus the successful
// history, or returns nil if the surrogate cannot be built yet. Priors
// condition the model and the EI baseline exactly like real evaluations —
// that is the whole transfer mechanism: the surrogate starts the search
// already knowing where related tasks found their optima. A pruned
// evaluation conditions the model with its rung value but is never the
// incumbent: its value was measured at a lower fidelity.
func fitSurrogate(space Space, history []Evaluation, opt Options) *surrogate {
	var xs [][]float64
	var ys []float64
	for _, po := range opt.PriorObservations {
		xs = append(xs, space.Normalize(po.Point))
		ys = append(ys, po.Value)
	}
	for _, e := range history {
		if e.Err != nil || math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			continue
		}
		xs = append(xs, space.Normalize(e.Point))
		ys = append(ys, e.Value)
	}
	if len(xs) < 2 {
		return nil
	}
	model, err := gp.FitAuto(xs, ys, opt.Noise)
	if err != nil {
		return nil
	}
	// The improvement baseline is this task's own best evaluation: priors
	// shape the surrogate mean (where to look) but must not capture the EI
	// baseline — a sibling task with a lower error scale would otherwise
	// make every real candidate look like no improvement and stall the
	// search. Only a prior-only surrogate (no successful history yet) falls
	// back to the transferred best.
	best := math.Inf(1)
	var incumbent []int
	for _, e := range history {
		if e.Err != nil || e.Pruned || math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			continue
		}
		if e.Value < best {
			best = e.Value
			incumbent = e.Point
		}
	}
	if incumbent == nil {
		for _, po := range opt.PriorObservations {
			if po.Value < best {
				best = po.Value
				incumbent = po.Point
			}
		}
	}
	return &surrogate{model: model, best: best, incumbent: incumbent}
}

// validPriors filters transferred observations down to the usable set:
// inside the space, finite value, first occurrence of each point. Copies
// defensively so a caller mutating its slice cannot corrupt the search.
func validPriors(space Space, priors []PriorObs) []PriorObs {
	if len(priors) == 0 {
		return nil
	}
	out := make([]PriorObs, 0, len(priors))
	dup := map[string]bool{}
	for _, po := range priors {
		if !space.Contains(po.Point) {
			continue
		}
		if math.IsNaN(po.Value) || math.IsInf(po.Value, 0) {
			continue
		}
		k := key(po.Point)
		if dup[k] {
			continue
		}
		dup[k] = true
		out = append(out, PriorObs{Point: append([]int(nil), po.Point...), Value: po.Value})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// randomInitCount is the random-design budget after priors are counted
// against InitPoints: priors already give the surrogate its footing, so
// only the uncovered remainder is spent on random evaluations.
func randomInitCount(initPoints, priors int) int {
	n := initPoints - priors
	if n < 0 {
		return 0
	}
	return n
}

// proposeAcq draws opt.Candidates candidate points (a mix of global samples
// and local perturbations of the incumbent), scores them all with one
// batched GP prediction, and returns the acquisition argmax.
func proposeAcq(space Space, s *surrogate, rng *rand.Rand, opt Options) []int {
	cands := make([][]int, opt.Candidates)
	norm := make([][]float64, opt.Candidates)
	for c := range cands {
		var p []int
		if s.incumbent != nil && c%4 == 0 {
			p = perturb(space, s.incumbent, rng)
		} else {
			p = space.Sample(rng)
		}
		cands[c] = p
		norm[c] = space.Normalize(p)
	}
	means, variances := s.model.PredictBatch(norm)
	var bestPt []int
	bestEI := math.Inf(-1)
	for c, p := range cands {
		ei := opt.Acq.score(s.best, means[c], math.Sqrt(variances[c]))
		if ei > bestEI {
			bestEI = ei
			bestPt = p
		}
	}
	return bestPt
}

// proposeEI fits a GP to the successful history and returns the candidate
// with the highest Expected Improvement, or nil if the surrogate cannot be
// built yet.
func proposeEI(space Space, history []Evaluation, rng *rand.Rand, opt Options) []int {
	s := fitSurrogate(space, history, opt)
	if s == nil {
		return nil
	}
	return proposeAcq(space, s, rng, opt)
}

// proposeBatch returns q distinct unseen points for one constant-liar round.
// After each pick the surrogate absorbs the lie (x, ymin) through an
// incremental Cholesky append, so subsequent picks are pushed away from
// already-chosen points without refitting the GP.
func proposeBatch(space Space, history []Evaluation, rng *rand.Rand, opt Options, q int, seen map[string]bool) [][]int {
	sizeCap := spaceSizeCap(space)
	s := fitSurrogate(space, history, opt)
	pts := make([][]int, 0, q)
	batchSeen := map[string]bool{}
	dup := func(k string) bool { return seen[k] || batchSeen[k] }
	for len(pts) < q {
		var next []int
		if s != nil {
			next = proposeAcq(space, s, rng, opt)
		}
		if next == nil {
			next = space.Sample(rng)
		}
		k := key(next)
		for dup(k) && len(seen)+len(batchSeen) < sizeCap {
			next = space.Sample(rng)
			k = key(next)
		}
		batchSeen[k] = true
		pts = append(pts, next)
		if s != nil && len(pts) < q {
			// Constant liar: pretend the point evaluated to ymin so the
			// next pick explores elsewhere. On a failed append (numerically
			// borderline kernel matrix) keep the current surrogate.
			if m, err := s.model.Append(space.Normalize(next), s.best); err == nil {
				s.model = m
			}
		}
	}
	return pts
}

// perturb returns a local neighbor of point: each coordinate takes a small
// Gaussian step (multiplicative for log parameters). Mixing local
// candidates into the EI argmax sharpens exploitation around the incumbent
// without giving up global exploration.
func perturb(space Space, point []int, rng *rand.Rand) []int {
	out := make([]int, len(point))
	for i, p := range space.Params {
		if p.Min == p.Max {
			out[i] = p.Min
			continue
		}
		if p.Log {
			v := float64(point[i]) * math.Exp(rng.NormFloat64()*0.2)
			out[i] = clampInt(int(math.Round(v)), p.Min, p.Max)
		} else {
			step := math.Max(1, 0.05*float64(p.Max-p.Min))
			v := float64(point[i]) + rng.NormFloat64()*step
			out[i] = clampInt(int(math.Round(v)), p.Min, p.Max)
		}
	}
	return out
}

func record(res *Result, e Evaluation) {
	res.History = append(res.History, e)
	if e.Err == nil && !e.Pruned && !math.IsNaN(e.Value) && e.Value < res.BestValue {
		res.BestValue = e.Value
		res.Best = append([]int(nil), e.Point...)
	}
}

func key(p []int) string {
	return fmt.Sprint(p)
}

// spaceSizeCap bounds duplicate-rejection so tiny spaces cannot loop
// forever.
func spaceSizeCap(s Space) int {
	size := 1
	for _, p := range s.Params {
		size *= p.Max - p.Min + 1
		if size > 1<<20 {
			return 1 << 20
		}
	}
	return size
}

// evaluateAll evaluates one batch of points, on up to workers goroutines,
// as one rung of successive halving. Every evaluation first runs to its
// rung. Of the r still running there, the best ⌈r/2⌉ — ranked by (rung
// value, position in points), never by completion order — run on to their
// end; the rest are pruned in point order and keep their rung value.
// Trials that end before their rung (a plain Objective) make this a plain
// parallel map, and a batch of one skips the rung.
//
// Points whose evaluation has not started when ctx is cancelled are
// skipped and omitted from the returned slice (in-flight evaluations run
// to completion), so cancellation never records phantom zero-value
// results. A batch cancelled before its ranking prunes nothing: every
// paused evaluation is finished, and reports the cancellation.
func evaluateAll(ctx context.Context, points [][]int, trials Trials, workers int, tr *obs.Trace, traceID uint64) []Evaluation {
	if len(points) == 1 {
		if ctx.Err() != nil {
			return nil
		}
		return []Evaluation{evalPoint(points[0], trials, tr, traceID)}
	}
	out := make([]Evaluation, len(points))
	paused := make([]Trial, len(points))
	spans := make([]*obs.Span, len(points))
	forEach(ctx, len(points), workers, func(i int) {
		sp := tr.Start("bo.eval").SetTrace(traceID).SetAttr("point", fmt.Sprint(points[i]))
		t := trials(points[i])
		v, done, err := t.Rung()
		out[i] = Evaluation{Point: points[i], Value: v, Err: err}
		if done {
			sp.EndErr(err)
			return
		}
		paused[i], spans[i] = t, sp
	})

	var live []int
	for i, t := range paused {
		if t != nil {
			live = append(live, i)
		}
	}
	keep := len(live)
	if ctx.Err() == nil {
		keep = (len(live) + 1) / 2
		sort.SliceStable(live, func(a, b int) bool { return rungLess(out[live[a]].Value, out[live[b]].Value) })
	}
	losers := live[keep:]
	sort.Ints(losers)
	for _, i := range losers {
		paused[i].Prune()
		out[i].Pruned = true
		spans[i].EndOutcome(obs.OutcomePruned)
	}
	survivors := live[:keep]
	forEach(context.Background(), len(survivors), workers, func(k int) {
		i := survivors[k]
		out[i].Value, out[i].Err = paused[i].Finish()
		spans[i].EndErr(out[i].Err)
	})
	return compactEvals(out)
}

// rungLess orders rung values ascending with NaN last.
func rungLess(a, b float64) bool {
	if math.IsNaN(b) {
		return !math.IsNaN(a)
	}
	return a < b
}

// forEach calls fn(i) for every i in [0, n) on up to workers goroutines.
// Indices not yet started when ctx is cancelled are skipped.
func forEach(ctx context.Context, n, workers int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() == nil {
				fn(i)
			}
		}(i)
	}
	wg.Wait()
}

// compactEvals drops slots whose evaluation never ran (nil Point).
func compactEvals(evals []Evaluation) []Evaluation {
	kept := evals[:0]
	for _, e := range evals {
		if e.Point != nil {
			kept = append(kept, e)
		}
	}
	return kept
}
