package obs

// Flight recorder: a bounded per-workload ring of causal events — the
// audit trail for the fleet's self-optimization loop. Every observation
// batch admitted at the serving layer mints a trace ID; the ID travels
// with the batch through the ingest queues, is latched onto the drift
// verdict the batch triggers, and is inherited by the rebuild and
// promotion events that follow, so an operator can read one workload's
// timeline as a connected chain: observe batch → drift detected →
// rebuild enqueued → rebuild started (warm-start provenance attached) →
// promoted or rejected.
//
// The recorder is deliberately tiny and lossy: each workload keeps its
// most recent Cap events (default 256) in memory, routine ingest events
// can be tail-sampled (SampleEvery), and nothing is persisted — this is
// a flight recorder, not a log. A nil *FlightRecorder is a valid
// disabled recorder: every method no-ops and returns zero values, so
// instrumented code pays one nil check when recording is off.
//
// Rings hold fixed-size slots, not FlightEvents: IDs, time and typed
// attributes as numbers, kind and outcome as table indices. The hot
// ingest events (RecordBatch, RecordDrift, RecordRebuildEnqueued) store
// a slot without allocating; rare events recorded through Record keep
// their free-form attribute map behind one pointer. Events rebuilds
// FlightEvents — and callers their JSON — only when a timeline is read.
//
// Trace and event IDs are minted from a process-local seed drawn once
// from crypto/rand plus an atomic counter. The recorder never touches
// math/rand or any model RNG stream — tracing provably cannot perturb
// training or search determinism.

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loaddynamics/internal/ringbuf"
)

// Flight event kinds recorded by the fleet pipeline.
const (
	FlightObserveBatch    = "observe.batch"
	FlightDriftDetected   = "drift.detected"
	FlightDriftCleared    = "drift.cleared"
	FlightRebuildEnqueued = "rebuild.enqueued"
	FlightRebuildStarted  = "rebuild.started"
	FlightRebuildPromoted = "rebuild.promoted"
	FlightRebuildRejected = "rebuild.rejected"
	FlightRebuildFailed   = "rebuild.failed"
	FlightRebuildTimeout  = "rebuild.timeout"
	FlightRebuildCancel   = "rebuild.cancelled"
	FlightWALDegraded     = "wal.degraded"
)

// HexID is a trace or event identifier rendered as lowercase hex in JSON
// (the form exemplar labels and timeline clients consume). Zero means
// "none" and is omitted by omitempty.
type HexID uint64

// String renders the ID as 16 lowercase hex digits ("0" for none).
func (h HexID) String() string {
	if h == 0 {
		return "0"
	}
	return fmt.Sprintf("%016x", uint64(h))
}

// MarshalJSON renders the ID as a hex string.
func (h HexID) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, h.String()), nil
}

// UnmarshalJSON parses the hex string form; a legacy unquoted JSON
// number parses as decimal.
func (h *HexID) UnmarshalJSON(b []byte) error {
	s, base := string(b), 10
	if unq, err := strconv.Unquote(s); err == nil {
		s, base = unq, 16
	}
	v, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return fmt.Errorf("obs: invalid id %s: %w", b, err)
	}
	*h = HexID(v)
	return nil
}

// TraceCtx is the propagatable trace context: the trace identity an
// observation batch was admitted under and the causal parent for the
// next event minted on its behalf. The zero value means "untraced" and
// costs nothing to pass around — it is three words, never heap-allocated
// by the ingest path (it rides inside the queued job struct).
type TraceCtx struct {
	// Trace identifies the causal chain (0 = none).
	Trace uint64
	// Parent is the event ID the next recorded event descends from
	// (0 = root of its trace).
	Parent uint64
	// RequestID is the X-Request-ID correlation value of the HTTP
	// request or stream that admitted the batch ("" = none).
	RequestID string
}

// FlightEvent is one recorded event in a workload's timeline.
type FlightEvent struct {
	// ID is the event's identity; later events reference it as Parent.
	ID HexID `json:"id"`
	// Trace is the causal chain the event belongs to.
	Trace HexID `json:"trace,omitempty"`
	// Parent is the event this one descends from (0 = chain root).
	Parent HexID `json:"parent,omitempty"`
	// Workload is the fleet workload the event belongs to.
	Workload string `json:"workload"`
	// Kind is one of the Flight* constants.
	Kind string `json:"kind"`
	// Outcome classifies the event (OutcomeOK, OutcomeFailed, "drift"…).
	Outcome string `json:"outcome,omitempty"`
	// RequestID is the correlation ID of the admitting HTTP request.
	RequestID string `json:"request_id,omitempty"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Attrs carries event-specific detail (scored counts, CV errors,
	// warm-start provenance, latched WAL error strings…).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// IngestAttrs is the typed attribute block of the hot ingest events
// (observe.batch, drift.detected, drift.cleared): what the evaluator
// knows once it has applied an observation batch. Recording it costs no
// allocation; Events renders it as the event's Attrs map.
type IngestAttrs struct {
	Accepted    int
	Scored      int
	Samples     int
	RollingMAPE float64
	ValError    float64
}

// flightKinds and flightOutcomes are the slot encodings of an event's
// Kind and Outcome: a slot stores the string's index, and index 0 means
// "not in the table" (the string then lives in the slot's rare block).
var (
	flightKinds = [...]string{"",
		FlightObserveBatch, FlightDriftDetected, FlightDriftCleared,
		FlightRebuildEnqueued, FlightRebuildStarted, FlightRebuildPromoted,
		FlightRebuildRejected, FlightRebuildFailed, FlightRebuildTimeout,
		FlightRebuildCancel, FlightWALDegraded}
	flightOutcomes = [...]string{"",
		OutcomeOK, "drift", "rejected", OutcomeFailed, OutcomeTimeout,
		OutcomeCancelled, OutcomeDiverged}
)

// Table indices of the typed hot events' kinds and outcomes.
const (
	kindObserveBatch    = 1
	kindDriftDetected   = 2
	kindDriftCleared    = 3
	kindRebuildEnqueued = 4
	outcomeOK           = 1
	outcomeDrift        = 2
)

func tableIndex(table []string, s string) uint8 {
	for i := 1; i < len(table); i++ {
		if table[i] == s {
			return uint8(i)
		}
	}
	return 0
}

// flightSlot is one resident event: fixed-size and, for the typed hot
// events, free of pointers other than the request ID (which shares the
// admitting request's backing array). The workload is the ring's.
type flightSlot struct {
	id, trace, parent uint64
	nanos             int64 // wall clock, Unix nanoseconds
	kind, outcome     uint8 // indices into flightKinds / flightOutcomes
	attrs             IngestAttrs
	requestID         string
	// rare is nil for typed events; events recorded through Record keep
	// their free-form attributes (and any kind or outcome off the tables)
	// here.
	rare *flightRare
}

type flightRare struct {
	kind, outcome string // used only when the slot's index is 0
	attrs         map[string]any
}

// event rebuilds the FlightEvent a slot encodes.
func (s *flightSlot) event(workload string) FlightEvent {
	ev := FlightEvent{
		ID:        HexID(s.id),
		Trace:     HexID(s.trace),
		Parent:    HexID(s.parent),
		Workload:  workload,
		Kind:      flightKinds[s.kind],
		Outcome:   flightOutcomes[s.outcome],
		RequestID: s.requestID,
		Time:      time.Unix(0, s.nanos),
	}
	if s.rare != nil {
		if s.kind == 0 {
			ev.Kind = s.rare.kind
		}
		if s.outcome == 0 {
			ev.Outcome = s.rare.outcome
		}
		ev.Attrs = s.rare.attrs
		return ev
	}
	a := &s.attrs
	switch s.kind {
	case kindObserveBatch:
		ev.Attrs = map[string]any{"accepted": a.Accepted, "scored": a.Scored,
			"samples": a.Samples, "rolling_mape": a.RollingMAPE}
	case kindDriftDetected:
		ev.Attrs = map[string]any{"rolling_mape": a.RollingMAPE,
			"val_error": a.ValError, "samples": a.Samples}
	case kindDriftCleared:
		ev.Attrs = map[string]any{"rolling_mape": a.RollingMAPE, "samples": a.Samples}
	}
	return ev
}

// flightRing is one workload's bounded event buffer. Each ring has its
// own mutex so hot workloads do not serialize against each other. The
// slots grow with what is recorded, up to the recorder's Cap.
type flightRing struct {
	workload string
	mu       sync.Mutex
	slots    ringbuf.Ring[flightSlot]
	// routine counts sampleable events admitted so far; drives the
	// 1-in-SampleEvery tail-sampling decision deterministically.
	routine int64
}

// FlightRecorderOptions tune a recorder.
type FlightRecorderOptions struct {
	// Cap is the per-workload event capacity (default 256), an upper bound
	// each ring grows to as it records.
	Cap int
	// SampleEvery tail-samples routine events: only every Nth sampleable
	// event per workload is kept (default 1 — keep everything). Forced
	// events (drift transitions, rebuild lifecycle, failures) always
	// record, so causal chains stay connected under sampling.
	SampleEvery int
}

// FlightRecorder records per-workload event timelines. Nil is a valid
// disabled recorder; all methods no-op on nil.
type FlightRecorder struct {
	cap         int
	sampleEvery int64
	clock       func() int64 // Unix nanoseconds stamped on recorded events

	seq     atomic.Uint64 // event-ID counter
	sampled atomic.Int64  // routine events dropped by tail sampling

	mu    sync.RWMutex
	rings map[string]*flightRing
}

// NewFlightRecorder returns an enabled recorder.
func NewFlightRecorder(opts FlightRecorderOptions) *FlightRecorder {
	if opts.Cap <= 0 {
		opts.Cap = 256
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 1
	}
	return &FlightRecorder{
		cap:         opts.Cap,
		sampleEvery: int64(opts.SampleEvery),
		clock:       func() int64 { return time.Now().UnixNano() },
		rings:       map[string]*flightRing{},
	}
}

// traceBase is the process-local trace-ID seed: 64 random bits drawn
// once from crypto/rand (falling back to a fixed constant only if the
// system entropy source is unreadable — IDs are then still unique within
// the process via the counter).
var (
	traceBase     uint64
	traceBaseOnce sync.Once
	traceCounter  atomic.Uint64
)

func initTraceBase() {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		traceBase = binary.LittleEndian.Uint64(b[:])
	} else {
		traceBase = 0x9e3779b97f4a7c15
	}
}

// NewTrace mints a fresh non-zero trace ID (0 when the recorder is
// disabled). Minting is one atomic add — cheap enough for once per
// streamed record batch.
func (r *FlightRecorder) NewTrace() uint64 {
	if r == nil {
		return 0
	}
	traceBaseOnce.Do(initTraceBase)
	// Multiplying the counter by a large odd constant scatters
	// consecutive IDs across the 64-bit space so exemplar labels from
	// adjacent batches are visually distinct; the map n → base ^ n·odd
	// is a bijection, so IDs never collide within a process.
	id := traceBase ^ (traceCounter.Add(1) * 0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	return id
}

// Enabled reports whether events are being recorded.
func (r *FlightRecorder) Enabled() bool { return r != nil }

func (r *FlightRecorder) ring(workload string) *flightRing {
	r.mu.RLock()
	fr := r.rings[workload]
	r.mu.RUnlock()
	if fr != nil {
		return fr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fr = r.rings[workload]; fr == nil {
		fr = &flightRing{workload: workload, slots: ringbuf.New[flightSlot](r.cap)}
		r.rings[workload] = fr
	}
	return fr
}

// Record appends one event unconditionally and returns its ID (0 when
// disabled). The recorder assigns ID, and Time when the caller left it
// zero; the caller provides everything else. The event's ID is the
// causal handle downstream stages use as Parent. Record is for rare
// events with free-form attributes; the hot ingest events have typed
// entry points (RecordBatch, RecordDrift, RecordRebuildEnqueued).
func (r *FlightRecorder) Record(ev FlightEvent) uint64 {
	if r == nil {
		return 0
	}
	return r.recordEvent(ev, false)
}

// RecordSampled appends a routine event subject to tail sampling: with
// SampleEvery = N, only every Nth sampleable event per workload is kept.
// Returns the event ID, or 0 when the event was sampled away (or the
// recorder is disabled). Callers that know the event anchors a causal
// chain (a drift transition fired on this batch) must use Record.
func (r *FlightRecorder) RecordSampled(ev FlightEvent) uint64 {
	if r == nil {
		return 0
	}
	return r.recordEvent(ev, true)
}

func (r *FlightRecorder) recordEvent(ev FlightEvent, sampled bool) uint64 {
	s := flightSlot{
		trace:     uint64(ev.Trace),
		parent:    uint64(ev.Parent),
		kind:      tableIndex(flightKinds[:], ev.Kind),
		outcome:   tableIndex(flightOutcomes[:], ev.Outcome),
		requestID: ev.RequestID,
		rare:      &flightRare{attrs: ev.Attrs},
	}
	if s.kind == 0 {
		s.rare.kind = ev.Kind
	}
	if s.outcome == 0 {
		s.rare.outcome = ev.Outcome
	}
	stamp := ev.Time.IsZero()
	if !stamp {
		s.nanos = ev.Time.UnixNano()
	}
	return r.record(r.ring(ev.Workload), &s, sampled, stamp)
}

// RecordBatch records an observe.batch event for one applied observation
// batch: trace, parent and request ID come from tc. The event is
// tail-sampled unless forced — a batch that fired a drift transition
// anchors its chain and must land. Returns the event ID (0 when sampled
// away or disabled).
func (r *FlightRecorder) RecordBatch(workload string, tc TraceCtx, a IngestAttrs, forced bool) uint64 {
	if r == nil {
		return 0
	}
	s := flightSlot{trace: tc.Trace, parent: tc.Parent, kind: kindObserveBatch,
		outcome: outcomeOK, attrs: a, requestID: tc.RequestID}
	return r.record(r.ring(workload), &s, !forced, true)
}

// RecordDrift records a drift transition, always: drift.detected
// (outcome "drift") when detected, else drift.cleared. tc.Parent is the
// batch event that fired it.
func (r *FlightRecorder) RecordDrift(workload string, tc TraceCtx, a IngestAttrs, detected bool) uint64 {
	if r == nil {
		return 0
	}
	s := flightSlot{trace: tc.Trace, parent: tc.Parent, kind: kindDriftCleared,
		outcome: outcomeOK, attrs: a, requestID: tc.RequestID}
	if detected {
		s.kind, s.outcome = kindDriftDetected, outcomeDrift
	}
	return r.record(r.ring(workload), &s, false, true)
}

// RecordRebuildEnqueued records a rebuild.enqueued event, always, parented
// on tc.Parent (the drift or batch event that queued the rebuild).
func (r *FlightRecorder) RecordRebuildEnqueued(workload string, tc TraceCtx) uint64 {
	if r == nil {
		return 0
	}
	s := flightSlot{trace: tc.Trace, parent: tc.Parent, kind: kindRebuildEnqueued,
		outcome: outcomeOK, requestID: tc.RequestID}
	return r.record(r.ring(workload), &s, false, true)
}

// record stores s in the ring under one lock hold: the tail-sampling
// decision (sampled events only), the event ID and, when stamp is set,
// the wall-clock time.
func (r *FlightRecorder) record(fr *flightRing, s *flightSlot, sampled, stamp bool) uint64 {
	fr.mu.Lock()
	if sampled && r.sampleEvery > 1 {
		fr.routine++
		if fr.routine%r.sampleEvery != 1 {
			fr.mu.Unlock()
			r.sampled.Add(1)
			return 0
		}
	}
	s.id = r.seq.Add(1)
	if stamp {
		s.nanos = r.clock()
	}
	fr.slots.Push(*s)
	fr.mu.Unlock()
	return s.id
}

// Events returns the workload's recorded events, oldest first (nil when
// disabled or unknown). Events are rebuilt from the ring's slots on each
// call; recording never builds a FlightEvent.
func (r *FlightRecorder) Events(workload string) []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fr := r.rings[workload]
	r.mu.RUnlock()
	if fr == nil {
		return nil
	}
	// Copy the slots under the lock and build the events (and their
	// attribute maps) after releasing it, so readers barely block writers.
	fr.mu.Lock()
	slots := fr.slots.AppendTo(make([]flightSlot, 0, fr.slots.Len()))
	fr.mu.Unlock()
	out := make([]FlightEvent, len(slots))
	for i := range slots {
		out[i] = slots[i].event(fr.workload)
	}
	return out
}

// Workloads returns the IDs with at least one recorded event, sorted.
func (r *FlightRecorder) Workloads() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]string, 0, len(r.rings))
	for id := range r.rings {
		out = append(out, id)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// FlightStats summarizes a recorder for /debug/flight.
type FlightStats struct {
	Enabled     bool           `json:"enabled"`
	Cap         int            `json:"cap"`
	SampleEvery int            `json:"sample_every"`
	Recorded    uint64         `json:"recorded"`
	SampledOut  int64          `json:"sampled_out"`
	Workloads   map[string]int `json:"workloads"`
}

// Stats returns the recorder's counters and per-workload resident event
// counts (Enabled false when nil).
func (r *FlightRecorder) Stats() FlightStats {
	if r == nil {
		return FlightStats{}
	}
	st := FlightStats{
		Enabled:     true,
		Cap:         r.cap,
		SampleEvery: int(r.sampleEvery),
		Recorded:    r.seq.Load(),
		SampledOut:  r.sampled.Load(),
		Workloads:   map[string]int{},
	}
	r.mu.RLock()
	rings := make(map[string]*flightRing, len(r.rings))
	for id, fr := range r.rings {
		rings[id] = fr
	}
	r.mu.RUnlock()
	for id, fr := range rings {
		fr.mu.Lock()
		n := fr.slots.Len()
		fr.mu.Unlock()
		st.Workloads[id] = n
	}
	return st
}
