package fleet

// Transfer learning: every completed rebuild (promoted or rejected — the
// search worked either way) records its workload fingerprint, winning
// hyperparameter point and CV error into the prior store, and every new
// rebuild asks the store for its k fingerprint-nearest siblings to seed
// the BO surrogate with (bo.Options.PriorObservations). The store is one
// JSON snapshot (priors.json) written atomically next to the fleet
// manifest; a missing or corrupt snapshot degrades to cold starts, never
// a boot failure.

import (
	"errors"
	"fmt"

	"loaddynamics/internal/bo"
	"loaddynamics/internal/core"
	"loaddynamics/internal/profile"
)

// priorsName is the prior-store snapshot file inside Options.Dir.
const priorsName = "priors.json"

// WorkloadProfile is the transfer-learning view of one workload: its live
// fingerprint (computed from the current observation history), the
// provenance of its most recent build, and the outcome the prior store
// holds for it.
type WorkloadProfile struct {
	ID string `json:"id"`
	// Fingerprint is the live fingerprint over the workload's current
	// observation history, in profile.FeatureNames order.
	Fingerprint []float64 `json:"fingerprint"`
	// Features is the same vector keyed by feature name.
	Features map[string]float64 `json:"features"`
	// WarmStart is how the workload's most recent rebuild was seeded.
	WarmStart profile.WarmStart `json:"warm_start"`
	// LastOutcome is the workload's recorded build outcome, if any.
	LastOutcome *profile.Outcome `json:"last_outcome,omitempty"`
}

// Profile returns the workload's transfer-learning view.
func (f *Fleet) Profile(id string) (WorkloadProfile, error) {
	e := f.get(id)
	if e == nil {
		return WorkloadProfile{}, fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	e.shard.mu.Lock()
	hist := e.eval.historyCopy()
	e.shard.mu.Unlock()
	fp := profile.Compute(hist)
	wp := WorkloadProfile{
		ID:          id,
		Fingerprint: append([]float64(nil), fp[:]...),
		Features:    make(map[string]float64, profile.FeatureDim),
	}
	for i, name := range profile.FeatureNames {
		wp.Features[name] = fp[i]
	}
	if w, ok := f.priors.WarmStartFor(id); ok {
		wp.WarmStart = w
	}
	if o, ok := f.priors.OutcomeFor(id); ok {
		wp.LastOutcome = &o
	}
	return wp, nil
}

// PriorStoreLen is the number of workloads with a recorded build outcome.
func (f *Fleet) PriorStoreLen() int { return f.priors.Len() }

// transferPriors retrieves the warm-start payload for one rebuild: the
// tuned hyperparameters and CV errors of up to WarmStartK
// fingerprint-nearest siblings. The workload's own previous outcome is
// excluded — self-reuse over unchanged data is what checkpoint resume is
// for; transfer is about siblings. Returns nil priors (a cold start) when
// warm-starting is disabled or the store has no usable neighbor.
func (f *Fleet) transferPriors(id string, fp profile.Fingerprint) ([]bo.PriorObs, profile.WarmStart) {
	k := f.opts.WarmStartK
	if k <= 0 {
		f.m.warmCold.Inc()
		return nil, profile.WarmStart{}
	}
	ws := profile.WarmStart{K: k}
	// Ask for one extra so the workload's own outcome (typically the
	// nearest of all) cannot crowd a sibling out of the budget.
	priors := make([]bo.PriorObs, 0, k)
	for _, n := range f.priors.Nearest(fp, k+1) {
		if n.Workload == id || len(priors) == k {
			continue
		}
		if _, ok := core.HyperparamsFromPoint(n.Point); !ok {
			continue
		}
		priors = append(priors, bo.PriorObs{Point: n.Point, Value: n.CVError})
		ws.Neighbors = append(ws.Neighbors, n.Workload)
	}
	ws.Priors = len(priors)
	if len(priors) == 0 {
		f.m.warmCold.Inc()
		return nil, ws
	}
	f.m.warmHits.Inc()
	return priors, ws
}

// TransferPriors is the public face of warm-start retrieval: the priors a
// build for id over the given observation window should be seeded with,
// plus the provenance to record alongside the outcome. Offline builders
// (loadctl fleet) use it to warm-start each successive workload from the
// ones already built.
func (f *Fleet) TransferPriors(id string, window []float64) ([]bo.PriorObs, profile.WarmStart) {
	return f.transferPriors(id, profile.Compute(window))
}

// RecordBuildOutcome lands an externally run build (loadctl fleet, an
// operator-driven retrain) in the prior store, exactly as a background
// rebuild would be.
func (f *Fleet) RecordBuildOutcome(id string, window []float64, res *core.Result, ws profile.WarmStart) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	if res == nil || res.Best == nil {
		return errors.New("fleet: build result has no model")
	}
	version := int64(1)
	if e := f.get(id); e != nil {
		version = e.version.Load()
	}
	return f.record(id, profile.Compute(window), res, ws, version)
}

// record stores one completed build's outcome: the fingerprint the build
// ran over, the winning point and CV error, the serving model version,
// and the rounds-to-best count (also observed into the
// profile.rounds_to_best histogram). The snapshot is then persisted so a
// restarted fleet warm-starts from the same history.
func (f *Fleet) record(id string, fp profile.Fingerprint, res *core.Result, ws profile.WarmStart, version int64) error {
	rounds := res.RoundsToBest()
	out := profile.Outcome{
		Workload:     id,
		Fingerprint:  fp[:],
		Point:        res.Best.HP.Point(),
		CVError:      res.Best.ValError,
		ModelVersion: version,
		RoundsToBest: rounds,
	}
	if err := f.priors.Record(out); err != nil {
		return err
	}
	f.priors.SetWarmStart(id, ws)
	f.m.storeSize.Set(int64(f.priors.Len()))
	if rounds > 0 {
		f.m.roundsToBest.Observe(float64(rounds))
	}
	f.savePriors()
	return nil
}

// savePriors persists the prior store snapshot (no-op for a memory-only
// fleet). A failed save is reported and retried on the next outcome — the
// in-memory store keeps feeding warm-starts either way.
func (f *Fleet) savePriors() {
	if f.priorsPath == "" {
		return
	}
	if err := f.priors.Save(f.priorsPath); err != nil {
		f.m.persistFailures.Inc()
		f.log.Warn("prior store persist failed", "path", f.priorsPath, "error", err.Error())
	}
}
