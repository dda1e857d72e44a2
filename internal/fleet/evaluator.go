package fleet

import (
	"errors"
	"fmt"
	"math"

	"loaddynamics/internal/obs"
	"loaddynamics/internal/ringbuf"
	"loaddynamics/internal/wal"
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
// horizon is committed like every evaluator mutation (WAL-logged, then
// applied), so a restart rescores post-crash observations against the same
// pending forecast a live process would have.
func (f *Fleet) RecordForecast(id string, forecasts []float64) {
	e := f.get(id)
	if e == nil || len(forecasts) == 0 {
		return
	}
	f.commit(e, wal.Record{Kind: walKindForecast, Workload: id, Values: forecasts}, &ingestResult{})
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
	e, tc, err := f.admitObserve(id, values, tc)
	if err != nil {
		return Status{}, err
	}
	res := ingestResult{tc: tc}
	f.commit(e, wal.Record{Kind: walKindObserve, Workload: id, Values: values}, &res)
	f.noteIngest(&res, true)
	return res.st, nil
}

// admitObserve is the one admission step for an observation batch, shared
// by ObserveCtx and EnqueueObserveCtx: the workload must exist, the batch
// must be non-empty with every arrival finite and non-negative, and when
// the flight recorder is on and the caller supplied no trace, one is
// minted so in-process callers still get chained timelines.
func (f *Fleet) admitObserve(id string, values []float64, tc obs.TraceCtx) (*entry, obs.TraceCtx, error) {
	e := f.get(id)
	if e == nil {
		return nil, tc, fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	if len(values) == 0 {
		return nil, tc, errors.New("fleet: empty observation batch")
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, tc, fmt.Errorf("fleet: observation %d is invalid (%v): arrivals are finite and non-negative", i, v)
		}
	}
	if tc.Trace == 0 && f.flight != nil {
		tc.Trace = f.flight.NewTrace()
	}
	return e, tc, nil
}

// commit is the synchronous evaluator write: WAL first, state second, both
// under the workload's shard lock, so per-workload log order equals
// mutation order. An append failure degrades to memory-only inside
// walAppend — the mutation is never dropped. res brings the trace context
// in and takes an observe record's outcome out.
func (f *Fleet) commit(e *entry, rec wal.Record, res *ingestResult) {
	e.shard.mu.Lock()
	f.walAppend(res.tc, rec)
	f.applyLocked(e, rec, res)
	e.shard.mu.Unlock()
}

// applyLocked applies one record to e's evaluator state, by kind. It is
// the only code that mutates evaluator state from a record: live observes,
// streamed chunks, served forecasts, resets and startup replay all run it,
// which is what makes replayed state bit-identical to the pre-crash
// evaluator. Callers hold e.shard.mu. For an observe record it fills res
// with the scoring outcome noteIngest reports after unlock (written in
// place: the result is too large to return by value on the hot path). It
// returns false for a kind this build does not know, leaving state alone.
func (f *Fleet) applyLocked(e *entry, rec wal.Record, res *ingestResult) bool {
	switch rec.Kind {
	case walKindForecast:
		e.eval.pending = append(e.eval.pending[:0], rec.Values...)
		e.eval.pendingNext = 0
	case walKindReset:
		e.eval.reset()
		e.mape.Set(0)
	case walKindObserve:
		// Each value extends the rebuild history, consumes the pending
		// forecast cursor, and updates the rolling windows; the drift
		// verdict is re-evaluated once per batch.
		res.e, res.valErr = e, e.valError()
		res.st = Status{Accepted: len(rec.Values)}
		for _, v := range rec.Values {
			e.eval.history.push(v)
			if e.eval.pendingNext >= len(e.eval.pending) {
				continue
			}
			pred := e.eval.pending[e.eval.pendingNext]
			e.eval.pendingNext++
			res.st.Scored++
			if v != 0 {
				e.eval.pctErrs.push(100 * math.Abs(pred-v) / v)
			}
			e.eval.sqErrs.push((pred - v) * (pred - v))
		}
		res.st.Samples = e.eval.samples()
		res.st.RollingMAPE = e.eval.rollingMAPE()
		res.st.RollingRMSE = e.eval.rollingRMSE()
		res.wasDrift = e.eval.drift
		res.st.Drift = f.isDrifted(res.st.Samples, res.st.RollingMAPE, res.valErr)
		e.eval.drift = res.st.Drift
		res.enoughHistory = e.eval.history.samples() >= f.opts.MinRebuildHistory
	default:
		return false
	}
	return true
}

// noteIngest reports one applied observe into the fleet's metrics.
// live=false (startup replay) updates counters and gauges exactly as a
// live observe would — drift-transition counts and the rolling-MAPE gauge
// survive a restart bit-identically — but suppresses logs and rebuild
// enqueues: replay reconstructs state, it must not re-trigger work or
// re-announce transitions the pre-crash process already acted on.
func (f *Fleet) noteIngest(r *ingestResult, live bool) {
	e, st, tc := r.e, &r.st, r.tc
	f.m.observations.Add(int64(st.Accepted))
	e.mape.Set(int64(math.Round(st.RollingMAPE)))

	// Flight recording: one observe.batch event per live batch (sampled
	// when quiet, forced on drift transitions so chains never lose their
	// anchor), plus a drift verdict event parented on the batch. Replay
	// (live=false) records nothing — it reconstructs state, not history.
	// The typed entry points store fixed-size slots: no map, no allocation.
	attrs := obs.IngestAttrs{Accepted: st.Accepted, Scored: st.Scored,
		Samples: st.Samples, RollingMAPE: st.RollingMAPE, ValError: r.valErr}
	var batchID, driftID uint64
	if live {
		batchID = f.flight.RecordBatch(e.id, tc, attrs, st.Drift != r.wasDrift)
	}
	batchTC := obs.TraceCtx{Trace: tc.Trace, Parent: batchID, RequestID: tc.RequestID}
	switch {
	case st.Drift && !r.wasDrift:
		f.m.drift.Inc()
		if live {
			driftID = f.flight.RecordDrift(e.id, batchTC, attrs, true)
			f.log.Warn("drift detected",
				obs.LogWorkload, e.id,
				"rolling_mape", st.RollingMAPE,
				"val_error", r.valErr,
				"samples", st.Samples)
		}
	case !st.Drift && r.wasDrift:
		if live {
			f.flight.RecordDrift(e.id, batchTC, attrs, false)
			f.log.Info("drift cleared",
				obs.LogWorkload, e.id,
				"rolling_mape", st.RollingMAPE,
				"samples", st.Samples)
		}
	}
	if st.Drift && r.enoughHistory && live {
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
