// Package obs is the stdlib-only observability layer of LoadDynamics:
// atomic counters and gauges, streaming histograms with quantile estimates,
// and a lightweight span recorder with JSONL export. Every subsystem of the
// pipeline (gp, nn, bo, core, serve) reports into it, and the serving layer
// exposes the snapshots over an operator-only admin mux.
//
// Metrics live in a Registry; the package-level Default registry collects
// process-wide build telemetry (GP fits, LSTM epochs, candidate outcomes)
// so a binary can print or serve one consolidated snapshot. Hot paths cache
// the metric handles — a Counter increment is a single atomic add and a
// Histogram observation is a handful of atomics, so instrumentation stays
// well under the noise floor of the kernels it measures.
//
// # Consistency
//
// Reads are weakly consistent: snapshots and the Prometheus exposition
// never stop writers, so a Registry.Snapshot is not an atomic cut across
// metrics (two counters incremented together may land one-in one-out),
// and within a single Histogram the count, sum and bucket totals may
// each lag in-flight Observe calls by a few updates. Values are
// monotone per metric and exact once writers quiesce. Consumers that
// need internal consistency (the Prometheus renderer, the SLO engine)
// derive totals from one pass over the bucket counters and clamp
// anything only a mid-update read could produce.
package obs

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (use a negative n to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: exponential bounds covering 1e-9..1e9 with
// bucketsPerDecade buckets per decade (relative width 10^(1/9) ≈ 1.29, so
// quantile estimates carry at most ~30% relative error before min/max
// clamping). Two extra buckets catch underflow (v ≤ 1e-9, including zero
// and negatives) and overflow (v > 1e9).
const (
	histMinExp       = -9
	histMaxExp       = 9
	bucketsPerDecade = 9
	numBuckets       = (histMaxExp - histMinExp) * bucketsPerDecade
)

// bucketBound returns the upper bound of bucket i (0-based over the regular
// buckets).
func bucketBound(i int) float64 {
	return math.Pow(10, float64(histMinExp)+float64(i+1)/bucketsPerDecade)
}

// Histogram is a fixed-bucket streaming histogram safe for concurrent
// observation. It tracks count, sum, min and max exactly and estimates
// quantiles by linear interpolation inside the matching bucket.
type Histogram struct {
	counts  [numBuckets + 2]atomic.Int64 // [0] underflow, [numBuckets+1] overflow
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	// ex lazily holds per-bucket exemplars — nil until the first traced
	// observation, so histograms that never see ObserveExemplar pay one
	// pointer of space and zero work.
	ex atomic.Pointer[exemplarSet]
}

// Exemplar is one sampled observation with its trace identity; the
// OpenMetrics renderer attaches it to the matching bucket line so a
// scraped latency outlier links straight to its flight-recorder trace.
type Exemplar struct {
	Value float64
	Trace HexID
	Time  time.Time
}

type exemplarSet struct {
	slots [numBuckets + 2]atomic.Pointer[Exemplar]
}

// ObserveExemplar records v exactly like Observe and, when trace is
// non-zero, retains (v, trace) as the exemplar of v's bucket (last
// write wins). The Observe contract is unchanged: an untraced call
// (trace 0) costs the same atomics as Observe plus one predictable
// branch.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	h.Observe(v)
	if trace == 0 {
		return
	}
	es := h.ex.Load()
	if es == nil {
		es = &exemplarSet{}
		if !h.ex.CompareAndSwap(nil, es) {
			es = h.ex.Load()
		}
	}
	es.slots[bucketIndex(v)].Store(&Exemplar{Value: v, Trace: HexID(trace), Time: time.Now()})
}

// exemplar returns bucket i's retained exemplar (nil when none).
func (h *Histogram) exemplar(i int) *Exemplar {
	es := h.ex.Load()
	if es == nil {
		return nil
	}
	return es.slots[i].Load()
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value to its slot in counts.
func bucketIndex(v float64) int {
	if v <= math.Pow(10, histMinExp) || math.IsNaN(v) {
		return 0
	}
	if v > math.Pow(10, histMaxExp) {
		return numBuckets + 1
	}
	i := int(math.Ceil((math.Log10(v) - histMinExp) * bucketsPerDecade))
	if i < 1 {
		i = 1
	}
	if i > numBuckets {
		i = numBuckets
	}
	return i
}

// Observe records one value. NaN is ignored — a poisoned observation must
// not destroy the sum, min and max of everything recorded before it.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min returns the smallest observation (+Inf when empty).
func (h *Histogram) Min() float64 { return math.Float64frombits(h.minBits.Load()) }

// Max returns the largest observation (-Inf when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) of the observed values:
// the bucket containing the target rank is located and the value linearly
// interpolated inside it, clamped to the exact observed [min, max]. Returns
// NaN for an empty histogram. Under concurrent observation the estimate may
// lag in-flight updates; it never blocks writers.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	idx := numBuckets + 1
	inBucket, before := 0.0, 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			idx, inBucket, before = i, n, cum
			break
		}
		cum += n
	}
	lo, hi := h.Min(), h.Max()
	var bLo, bHi float64
	switch idx {
	case 0:
		bLo, bHi = lo, math.Pow(10, histMinExp)
	case numBuckets + 1:
		bLo, bHi = math.Pow(10, histMaxExp), hi
	default:
		bLo, bHi = bucketBound(idx-2), bucketBound(idx-1)
	}
	frac := 0.5
	if inBucket > 0 {
		frac = (target - before) / inBucket
	}
	est := bLo + frac*(bHi-bLo)
	return math.Min(math.Max(est, lo), hi)
}

// HistogramSnapshot is the JSON-able summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram. An empty histogram yields the zero
// snapshot (not NaNs) so it serializes cleanly to JSON.
func (h *Histogram) Snapshot() HistogramSnapshot {
	n := h.Count()
	if n == 0 {
		return HistogramSnapshot{}
	}
	sum := h.Sum()
	return HistogramSnapshot{
		Count: n,
		Sum:   sum,
		Mean:  sum / float64(n),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// Registry is a named collection of metrics. The get-or-create accessors
// are safe for concurrent use; hot paths should cache the returned handles.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry. Build-side subsystems (gp, nn,
// core) report here so one snapshot covers the whole pipeline.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h = NewHistogram()
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON export
// (the /debug/metrics response body).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value. The capture is weakly
// consistent (see the package documentation): each metric is read
// atomically, but the set of reads is not one atomic cut — metrics
// updated together by a concurrent writer may straddle the snapshot.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// CounterNames returns the registered counter names, sorted — report
// writers iterate deterministically without sorting snapshots themselves.
func (s Snapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// HistogramNames returns the registered histogram names, sorted.
func (s Snapshot) HistogramNames() []string { return sortedKeys(s.Histograms) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Span outcome classes shared across the pipeline. Cancelled and timed-out
// evaluations are distinct from failures: a cancellation is a property of
// the build (the candidate is never recorded), while a timeout or a
// divergence is a property of the candidate (quarantined in the database),
// and checkpoint-resume replay must reproduce the same class. A pruned
// evaluation was stopped at its rung by successive halving: recorded with
// its rung value, neither failed nor quarantined.
const (
	OutcomeOK        = "ok"
	OutcomeFailed    = "failed"
	OutcomeTimeout   = "timeout"
	OutcomeCancelled = "cancelled"
	OutcomeDiverged  = "diverged"
	OutcomePruned    = "pruned"
)

// ErrOutcome classifies an evaluation error into a span outcome:
// context.Canceled → cancelled, context.DeadlineExceeded → timeout, any
// other error → failed, nil → ok.
func ErrOutcome(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, context.Canceled):
		return OutcomeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeTimeout
	default:
		return OutcomeFailed
	}
}
