package fleet

import (
	"errors"
	"fmt"
	"math"

	"loaddynamics/internal/obs"
	"loaddynamics/internal/ringbuf"
)

// ring is a bounded sliding window with an O(1) rolling sum: the rolling
// MAPE/RMSE reads on the observe path cost two loads, not a scan. The
// window grows with what is pushed, up to its capacity.
type ring struct {
	buf ringbuf.Ring[float64]
	sum float64
}

func newRing(capacity int) ring { return ring{buf: ringbuf.New[float64](capacity)} }

func (r *ring) push(v float64) {
	if r.buf.Full() {
		r.sum -= r.buf.Oldest()
	}
	r.buf.Push(v)
	r.sum += v
}

func (r *ring) samples() int { return r.buf.Len() }

func (r *ring) mean() float64 {
	s := r.samples()
	if s == 0 {
		return 0
	}
	return r.sum / float64(s)
}

func (r *ring) reset() {
	r.buf.Reset()
	r.sum = 0
}

// evalState is one workload's online evaluation state: the latest served
// forecast horizon awaiting actuals, the rolling error windows, and the
// observation history rebuilds train on. Guarded by the owning shard's
// lock (entry.shard.mu).
type evalState struct {
	// pending is the most recent served forecast horizon; observations
	// consume it front-to-back via pendingNext. Each new forecast replaces
	// it ("latest forecast wins"), matching an auto-scaler that re-polls
	// every interval, and bounding memory by the serving layer's step cap.
	// The cursor (rather than re-slicing pending) keeps the backing array's
	// capacity, so RecordForecast reuses it allocation-free.
	pending     []float64
	pendingNext int
	// pctErrs holds |pred−actual|/|actual|·100 per scored observation
	// (zero actuals are skipped — same convention as timeseries.MAPE).
	pctErrs ring
	// sqErrs holds (pred−actual)² per scored observation.
	sqErrs ring
	// history is the rolling raw-observation window rebuilds train on.
	history ring
	// drift is the last evaluated drift verdict.
	drift bool
}

func newEvalState(opts Options) evalState {
	return evalState{
		pctErrs: newRing(opts.Window),
		sqErrs:  newRing(opts.Window),
		history: newRing(opts.HistoryCap),
	}
}

func (s *evalState) samples() int { return s.sqErrs.samples() }

func (s *evalState) rollingMAPE() float64 { return s.pctErrs.mean() }

func (s *evalState) rollingRMSE() float64 { return math.Sqrt(s.sqErrs.mean()) }

// historyCopy returns the observation history oldest-first.
func (s *evalState) historyCopy() []float64 {
	return s.history.buf.AppendTo(make([]float64, 0, s.history.samples()))
}

// reset clears the error windows and pending horizon — called after a
// promotion (the new model deserves a fresh window) and after a rejected
// promotion (so the same stale window cannot re-queue a rebuild every
// observation batch; drift must re-establish over MinSamples fresh
// scores). The observation history is kept: data is data.
func (s *evalState) reset() {
	s.pending = s.pending[:0]
	s.pendingNext = 0
	s.pctErrs.reset()
	s.sqErrs.reset()
	s.drift = false
}

// Status reports what one Observe call did: how many values were ingested,
// how many were scored against served forecasts, and the workload's
// post-ingest rolling health.
type Status struct {
	Accepted      int     `json:"accepted"`
	Scored        int     `json:"scored"`
	Samples       int     `json:"samples"`
	RollingMAPE   float64 `json:"rolling_mape"`
	RollingRMSE   float64 `json:"rolling_rmse"`
	Drift         bool    `json:"drift"`
	RebuildQueued bool    `json:"rebuild_queued,omitempty"`
}

// RecordForecast stores the forecast horizon just served for a workload so
// later observations can be scored against it. Unknown workloads are
// ignored — recording is fire-and-forget on the forecast hot path. The
// horizon is WAL-logged (under the same lock, before the state change) so
// a restart rescores post-crash observations against the same pending
// forecast a live process would have.
func (f *Fleet) RecordForecast(id string, forecasts []float64) {
	e := f.get(id)
	if e == nil || len(forecasts) == 0 {
		return
	}
	e.shard.mu.Lock()
	f.walAppend(walKindForecast, id, forecasts, obs.TraceCtx{})
	e.eval.pending = append(e.eval.pending[:0], forecasts...)
	e.eval.pendingNext = 0
	e.shard.mu.Unlock()
}

// Observe ingests observed arrivals (oldest first) for a workload: each
// value extends the rebuild history, is scored against the pending served
// forecast when one is queued, and updates the rolling MAPE/RMSE windows.
// When the drift rule fires and enough history has accumulated, the
// workload is queued for a background rebuild (deduplicated — one queued
// or running rebuild per workload).
func (f *Fleet) Observe(id string, values []float64) (Status, error) {
	return f.ObserveCtx(id, values, obs.TraceCtx{})
}

// ObserveCtx is Observe with an explicit trace context: the serving layer
// mints one trace per request so the flight recorder can stitch the
// observe → WAL → drift → rebuild chain under that ID. A zero TraceCtx
// behaves exactly like Observe; when the flight recorder is on and no
// trace was supplied, one is minted here.
func (f *Fleet) ObserveCtx(id string, values []float64, tc obs.TraceCtx) (Status, error) {
	e := f.get(id)
	if e == nil {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	if err := checkObservations(values); err != nil {
		return Status{}, err
	}
	if tc.Trace == 0 && f.flight != nil {
		tc.Trace = f.flight.NewTrace()
	}
	valErr := e.valError()

	e.shard.mu.Lock()
	// WAL first, state second, both under the shard lock: the
	// per-workload record order in the log equals the evaluator mutation
	// order, so startup replay reconstructs this exact state. An append
	// failure degrades to memory-only inside walAppend — the observation
	// is never dropped.
	f.walAppend(walKindObserve, id, values, tc)
	st, wasDrift, enoughHistory := f.ingestLocked(e, values, valErr)
	e.shard.mu.Unlock()

	f.noteIngest(e, &st, wasDrift, enoughHistory, true, valErr, tc)
	return st, nil
}

// checkObservations is the one admission check for an observation batch,
// shared by ObserveCtx and EnqueueObserveCtx: a batch must be non-empty
// and every arrival finite and non-negative.
func checkObservations(values []float64) error {
	if len(values) == 0 {
		return errors.New("fleet: empty observation batch")
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("fleet: observation %d is invalid (%v): arrivals are finite and non-negative", i, v)
		}
	}
	return nil
}

// ingestLocked runs the scoring loop for one observation batch: each value
// extends the rebuild history, consumes the pending forecast cursor, and
// updates the rolling windows and drift verdict. Callers hold e.shard.mu.
// Live observes and startup replay share this path, which is what makes
// replayed state bit-identical to the pre-crash evaluator.
func (f *Fleet) ingestLocked(e *entry, values []float64, valErr float64) (st Status, wasDrift, enoughHistory bool) {
	st = Status{Accepted: len(values)}
	for _, v := range values {
		e.eval.history.push(v)
		if e.eval.pendingNext >= len(e.eval.pending) {
			continue
		}
		pred := e.eval.pending[e.eval.pendingNext]
		e.eval.pendingNext++
		st.Scored++
		if v != 0 {
			e.eval.pctErrs.push(100 * math.Abs(pred-v) / v)
		}
		e.eval.sqErrs.push((pred - v) * (pred - v))
	}
	st.Samples = e.eval.samples()
	st.RollingMAPE = e.eval.rollingMAPE()
	st.RollingRMSE = e.eval.rollingRMSE()
	wasDrift = e.eval.drift
	st.Drift = f.isDrifted(st.Samples, st.RollingMAPE, valErr)
	e.eval.drift = st.Drift
	enoughHistory = e.eval.history.samples() >= f.opts.MinRebuildHistory
	return st, wasDrift, enoughHistory
}

// noteIngest reports one ingest into the fleet's metrics. live=false
// (startup replay) updates counters and gauges exactly as a live observe
// would — drift-transition counts and the rolling-MAPE gauge survive a
// restart bit-identically — but suppresses logs and rebuild enqueues:
// replay reconstructs state, it must not re-trigger work or re-announce
// transitions the pre-crash process already acted on.
func (f *Fleet) noteIngest(e *entry, st *Status, wasDrift, enoughHistory, live bool, valErr float64, tc obs.TraceCtx) {
	f.m.observations.Add(int64(st.Accepted))
	e.mape.Set(int64(math.Round(st.RollingMAPE)))

	// Flight recording: one observe.batch event per live batch (sampled
	// when quiet, forced on drift transitions so chains never lose their
	// anchor), plus a drift verdict event parented on the batch. Replay
	// (live=false) records nothing — it reconstructs state, not history.
	// The typed entry points store fixed-size slots: no map, no allocation.
	attrs := obs.IngestAttrs{Accepted: st.Accepted, Scored: st.Scored,
		Samples: st.Samples, RollingMAPE: st.RollingMAPE, ValError: valErr}
	var batchID, driftID uint64
	if live {
		batchID = f.flight.RecordBatch(e.id, tc, attrs, st.Drift != wasDrift)
	}
	batchTC := obs.TraceCtx{Trace: tc.Trace, Parent: batchID, RequestID: tc.RequestID}
	switch {
	case st.Drift && !wasDrift:
		f.m.drift.Inc()
		if live {
			driftID = f.flight.RecordDrift(e.id, batchTC, attrs, true)
			f.log.Warn("drift detected",
				obs.LogWorkload, e.id,
				"rolling_mape", st.RollingMAPE,
				"val_error", valErr,
				"samples", st.Samples)
		}
	case !st.Drift && wasDrift:
		if live {
			f.flight.RecordDrift(e.id, batchTC, attrs, false)
			f.log.Info("drift cleared",
				obs.LogWorkload, e.id,
				"rolling_mape", st.RollingMAPE,
				"samples", st.Samples)
		}
	}
	if st.Drift && enoughHistory && live {
		// Latch the causal context BEFORE enqueueing: the rebuild worker
		// may start the build before this goroutine records the enqueue
		// event, and the latch is what fleet.rebuild spans and rebuild.*
		// flight events inherit their trace from.
		parent := driftID
		if parent == 0 {
			parent = batchID
		}
		if f.flight != nil {
			e.driftTrace.Store(tc.Trace)
			e.driftParent.Store(parent)
		}
		st.RebuildQueued = f.enqueueRebuild(e)
		if st.RebuildQueued {
			f.flight.RecordRebuildEnqueued(e.id,
				obs.TraceCtx{Trace: tc.Trace, Parent: parent, RequestID: tc.RequestID})
		}
	}
}

// isDrifted is the drift rule: enough scored samples, and a rolling MAPE
// above the absolute threshold or above DriftFactor times the serving
// model's stored cross-validation error.
func (f *Fleet) isDrifted(samples int, rollingMAPE, valError float64) bool {
	if samples < f.opts.MinSamples {
		return false
	}
	if rollingMAPE > f.opts.DriftThreshold {
		return true
	}
	return valError > 0 && rollingMAPE > f.opts.DriftFactor*valError
}

// workloadGauge resolves the per-workload rolling-MAPE gauge (percent,
// rounded — gauges are integral). It is called once per entry at creation
// and the handle cached (entry.mape), keeping the observe path free of the
// metric-name concat and registry lookup.
func (f *Fleet) workloadGauge(id string) *obs.Gauge {
	return f.m.reg.Gauge("fleet.rolling_mape_pct." + id)
}
