package fleet

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRingRollingSum(t *testing.T) {
	r := newRing(3)
	if r.samples() != 0 || r.mean() != 0 {
		t.Fatalf("empty ring samples=%d mean=%v", r.samples(), r.mean())
	}
	r.push(1)
	r.push(2)
	if r.samples() != 2 || r.mean() != 1.5 {
		t.Fatalf("samples=%d mean=%v, want 2/1.5", r.samples(), r.mean())
	}
	r.push(3)
	r.push(10) // evicts the 1
	if r.samples() != 3 || r.mean() != 5 {
		t.Fatalf("samples=%d mean=%v, want 3/5", r.samples(), r.mean())
	}
	r.reset()
	if r.samples() != 0 || r.mean() != 0 {
		t.Fatalf("reset ring samples=%d mean=%v", r.samples(), r.mean())
	}
}

// fixedRing is the preallocated ring the growing ring replaced, kept as the
// reference for its arithmetic.
type fixedRing struct {
	vals    []float64
	next, n int
	sum     float64
}

func (r *fixedRing) push(v float64) {
	if r.n >= len(r.vals) {
		r.sum -= r.vals[r.next]
	}
	r.vals[r.next] = v
	r.sum += v
	r.next = (r.next + 1) % len(r.vals)
	r.n++
}

// TestRingMatchesFixedReference pins the growing ring to the preallocated
// one bit for bit: the same pushes and subtractions in the same order give
// the same rolling sum, mean and oldest-first history, across resets.
func TestRingMatchesFixedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, capacity := range []int{1, 3, 8, 64, 100} {
		s := evalState{history: newRing(capacity)}
		ref := fixedRing{vals: make([]float64, capacity)}
		for i := 0; i < 20*capacity+7; i++ {
			if i%(7*capacity+3) == 5*capacity { // reset mid-stream
				s.history.reset()
				ref = fixedRing{vals: make([]float64, capacity)}
			}
			v := rng.ExpFloat64() * 1e3
			s.history.push(v)
			ref.push(v)
			if s.history.sum != ref.sum || s.history.samples() != min(ref.n, capacity) {
				t.Fatalf("cap %d push %d: sum %v samples %d, reference %v/%d",
					capacity, i, s.history.sum, s.history.samples(), ref.sum, min(ref.n, capacity))
			}
		}
		want := append(append([]float64(nil), ref.vals[ref.next:]...), ref.vals[:ref.next]...)
		if got := s.historyCopy(); !slices.Equal(got, want) {
			t.Fatalf("cap %d: historyCopy %v, reference %v", capacity, got, want)
		}
	}
}

// TestRingGrowsOnDemand pins a workload's ring memory to what it has
// pushed: a new evaluator holds no slots, and a full history ring holds
// exactly HistoryCap.
func TestRingGrowsOnDemand(t *testing.T) {
	opts := Options{}.withDefaults()
	s := newEvalState(opts)
	if n := s.history.buf.Held() + s.pctErrs.buf.Held() + s.sqErrs.buf.Held(); n != 0 {
		t.Fatalf("a new workload's evaluator holds %d ring slots before any push, want 0", n)
	}
	for k := 1; k <= opts.HistoryCap+10; k++ {
		s.history.push(float64(k))
	}
	if got := s.history.buf.Held(); got != opts.HistoryCap {
		t.Fatalf("a full history ring holds %d slots, want exactly its cap %d", got, opts.HistoryCap)
	}
}

func TestHistoryCopyOrdering(t *testing.T) {
	s := evalState{history: newRing(4)}
	for i := 1; i <= 6; i++ {
		s.history.push(float64(i))
	}
	got := s.historyCopy()
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("historyCopy = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("historyCopy = %v, want %v", got, want)
		}
	}
}

func TestObserveScoresAgainstServedForecasts(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	// No forecast served yet: observations extend history but score nothing.
	st, err := f.Observe("w", []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 2 || st.Scored != 0 || st.Samples != 0 {
		t.Fatalf("pre-forecast status %+v", st)
	}

	// Serve a 3-step horizon, observe 2 actuals: 2 scored, 1 pending left.
	f.RecordForecast("w", []float64{110, 120, 130})
	st, err = f.Observe("w", []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scored != 2 || st.Samples != 2 {
		t.Fatalf("status %+v, want 2 scored", st)
	}
	wantMAPE := (10.0 + 20.0) / 2
	if math.Abs(st.RollingMAPE-wantMAPE) > 1e-9 {
		t.Fatalf("rolling MAPE %v, want %v", st.RollingMAPE, wantMAPE)
	}
	wantRMSE := math.Sqrt((100.0 + 400.0) / 2)
	if math.Abs(st.RollingRMSE-wantRMSE) > 1e-9 {
		t.Fatalf("rolling RMSE %v, want %v", st.RollingRMSE, wantRMSE)
	}

	// The leftover pending step scores on the next observation; zero
	// actuals are skipped by MAPE but still counted by RMSE.
	st, err = f.Observe("w", []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scored != 1 || st.RollingMAPE != wantMAPE {
		t.Fatalf("zero-actual status %+v (MAPE must be unchanged)", st)
	}

	// A newer forecast replaces any stale pending horizon.
	f.RecordForecast("w", []float64{200, 200})
	f.RecordForecast("w", []float64{100})
	st, err = f.Observe("w", []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scored != 1 {
		t.Fatalf("latest-forecast-wins violated: %+v", st)
	}

	// Invalid observations are rejected atomically.
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {-1}} {
		if _, err := f.Observe("w", bad); err == nil {
			t.Fatalf("Observe(%v) succeeded", bad)
		}
	}
	if _, err := f.Observe("nope", []float64{1}); err == nil {
		t.Fatal("Observe on unknown workload succeeded")
	}
}

func TestDriftRuleThresholdAndFactor(t *testing.T) {
	f, err := Open(testOptions(t, "")) // MinSamples 4, threshold 50, factor 3
	if err != nil {
		t.Fatal(err)
	}
	// Absolute threshold: below MinSamples nothing fires, above it a rolling
	// MAPE over 50% is drift.
	if f.isDrifted(3, 90, 0) {
		t.Fatal("drift below MinSamples")
	}
	if !f.isDrifted(4, 51, 0) {
		t.Fatal("no drift above absolute threshold")
	}
	if f.isDrifted(4, 49, 0) {
		t.Fatal("drift below both rules")
	}
	// CV-relative rule: model with 10% CV error drifts at >30% rolling MAPE.
	if !f.isDrifted(4, 31, 10) {
		t.Fatal("no drift above DriftFactor×ValError")
	}
	if f.isDrifted(4, 29, 10) {
		t.Fatal("drift below DriftFactor×ValError")
	}
}

func TestObserveFlagsDriftAndSetsGauge(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	reg := f.opts.Metrics
	// Four wildly wrong served forecasts push the rolling MAPE to ~900%.
	f.RecordForecast("w", []float64{1000, 1000, 1000, 1000})
	st, err := f.Observe("w", []float64{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drift {
		t.Fatalf("status %+v, want drift", st)
	}
	if st.RebuildQueued {
		t.Fatal("rebuild queued below MinRebuildHistory")
	}
	if got := reg.Counter("fleet.drift").Value(); got != 1 {
		t.Fatalf("drift counter = %d, want 1", got)
	}
	if got := reg.Gauge("fleet.rolling_mape_pct.w").Value(); got != 900 {
		t.Fatalf("rolling MAPE gauge = %d, want 900", got)
	}
	ws, _ := f.Status("w")
	if !ws.Drift {
		t.Fatalf("workload status %+v, want drift", ws)
	}
	// Staying drifted does not re-count; the counter tracks transitions.
	f.RecordForecast("w", []float64{1000})
	if _, err := f.Observe("w", []float64{100}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fleet.drift").Value(); got != 1 {
		t.Fatalf("drift counter after repeat = %d, want 1", got)
	}
}

func TestDriftQueuesRebuildOncePerWorkload(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Enough history first (no pending forecasts → nothing scored).
	if _, err := f.Observe("w", tinySeries(3, 64)); err != nil {
		t.Fatal(err)
	}
	f.RecordForecast("w", []float64{1000, 1000, 1000, 1000})
	st, err := f.Observe("w", []float64{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drift || !st.RebuildQueued {
		t.Fatalf("status %+v, want drift and a queued rebuild", st)
	}
	ws, _ := f.Status("w")
	if !ws.Rebuilding {
		t.Fatal("workload not marked rebuilding after enqueue")
	}
	// Still drifted: deduplicated, not re-queued.
	f.RecordForecast("w", []float64{1000})
	st, err = f.Observe("w", []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if st.RebuildQueued {
		t.Fatal("drifted workload queued twice")
	}
}
