package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestHistogramQuantiles feeds known distributions and checks the quantile
// estimates land inside analytically derived bounds. The bucket layout has
// ~29% relative width, so bounds allow that error plus clamping slack.
func TestHistogramQuantiles(t *testing.T) {
	uniform := func(n int, lo, hi float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return out
	}
	exponential := func(n int, mean float64) []float64 {
		rng := rand.New(rand.NewSource(3))
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.ExpFloat64() * mean
		}
		return out
	}
	constant := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}

	cases := []struct {
		name   string
		values []float64
		q      float64
		lo, hi float64
	}{
		{"uniform p50", uniform(10_000, 0, 1000), 0.50, 350, 650},
		{"uniform p90", uniform(10_000, 0, 1000), 0.90, 700, 1000},
		{"uniform p99", uniform(10_000, 0, 1000), 0.99, 900, 1000},
		{"uniform p0 is min", uniform(10_000, 0, 1000), 0, 0, 0.2},
		{"uniform p100 is max", uniform(10_000, 0, 1000), 1, 999, 1000},
		{"uniform small-range p50", uniform(1_000, 10, 20), 0.50, 12, 18},
		{"exponential p50 ≈ mean·ln2", exponential(20_000, 1), 0.50, 0.45, 0.95},
		{"exponential p90 ≈ mean·ln10", exponential(20_000, 1), 0.90, 1.6, 3.0},
		{"constant collapses", constant(100, 42), 0.50, 42, 42},
		{"constant p99", constant(100, 42), 0.99, 42, 42},
		{"single value", []float64{3.5}, 0.75, 3.5, 3.5},
		{"sub-underflow values clamp to min", constant(50, 1e-12), 0.50, 1e-12, 1e-9},
		{"overflow values clamp to max", constant(50, 1e12), 0.99, 1e9, 1e12},
		{"latency-like micro p50", uniform(5_000, 0.0001, 0.01), 0.50, 0.003, 0.008},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram()
			for _, v := range c.values {
				h.Observe(v)
			}
			got := h.Quantile(c.q)
			if math.IsNaN(got) || got < c.lo || got > c.hi {
				t.Fatalf("Quantile(%v) = %v, want in [%v, %v]", c.q, got, c.lo, c.hi)
			}
		})
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{2, 8, 4, 16} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 30 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Min() != 2 || h.Max() != 16 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	snap := h.Snapshot()
	if snap.Mean != 7.5 || snap.Count != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestHistogramEmptyAndNaN(t *testing.T) {
	h := NewHistogram()
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	if snap := h.Snapshot(); snap != (HistogramSnapshot{}) {
		t.Fatalf("empty snapshot = %+v, want zero value", snap)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Fatal("NaN observation was counted")
	}
	h.Observe(5)
	if h.Count() != 1 || h.Sum() != 5 || h.Min() != 5 || h.Max() != 5 {
		t.Fatalf("stats after NaN+5: count=%d sum=%v min=%v max=%v", h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

// TestHistogramBucketMonotonic pins the bucket index function: indices are
// monotone in the value and each value's bucket bounds contain it.
func TestHistogramBucketMonotonic(t *testing.T) {
	prev := -1
	for exp := -10.0; exp <= 10; exp += 0.05 {
		v := math.Pow(10, exp)
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %v: %d < %d", v, i, prev)
		}
		prev = i
		if i >= 1 && i <= numBuckets {
			lo, hi := bucketBound(i-2), bucketBound(i-1)
			// Allow one ULP of slack at bucket edges: Log10 rounding may
			// place an exact bound in either adjacent bucket.
			if v < lo*(1-1e-12) || v > hi*(1+1e-12) {
				t.Fatalf("value %v outside bucket %d bounds [%v, %v]", v, i, lo, hi)
			}
		}
	}
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(1.5)
	snap := r.Snapshot()
	if snap.Counters["a"] != 3 || snap.Gauges["g"] != -2 || snap.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if names := snap.CounterNames(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("counter names = %v", names)
	}
	if names := snap.HistogramNames(); len(names) != 1 || names[0] != "h" {
		t.Fatalf("histogram names = %v", names)
	}
}

// TestConcurrentMetrics hammers one registry from parallel goroutines —
// run under -race it proves counters, gauges, histograms and snapshots are
// safe for concurrent use, and afterwards the totals must be exact.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(rng.Float64() * 100)
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.Histogram("h").Quantile(0.9)
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("c").Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("g").Value(); got != total {
		t.Fatalf("gauge = %d, want %d", got, total)
	}
	h := r.Histogram("h")
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	if q := h.Quantile(0.5); q < 20 || q > 80 {
		t.Fatalf("p50 of uniform(0,100) = %v", q)
	}
}

func TestErrOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, OutcomeOK},
		{contextCanceledWrapped(), OutcomeCancelled},
		{contextDeadlineWrapped(), OutcomeTimeout},
		{errPlain, OutcomeFailed},
	}
	for _, c := range cases {
		if got := ErrOutcome(c.err); got != c.want {
			t.Fatalf("ErrOutcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
