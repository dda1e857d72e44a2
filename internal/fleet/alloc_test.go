//go:build !race

// Allocation pins for the fleet hot paths. AllocsPerRun is incompatible
// with the race detector's instrumentation, so these assertions are built
// out of -race runs; `make bench`/`make benchdiff` gate the same numbers.
package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"loaddynamics/internal/obs"
)

// TestObservePathZeroAlloc pins RecordForecast+Observe at zero allocations:
// the pending-horizon buffer is reused via a cursor and the per-workload
// gauge handle is cached on the entry, so the scoring loop never touches
// the heap. Tolerance below 1 (not an exact 0 compare) because a stray GC
// during the measured runs can empty a sync.Pool elsewhere in the process.
func TestObservePathZeroAlloc(t *testing.T) {
	f := benchFleet(t)
	horizon := []float64{100, 101, 102, 103}
	actuals := []float64{99, 103, 100, 105}
	// Warm the pending buffer to its steady-state capacity.
	f.RecordForecast("c", horizon)
	if _, err := f.Observe("c", actuals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.RecordForecast("c", horizon)
		if _, err := f.Observe("c", actuals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("observe path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestCacheHitZeroAlloc pins the cached-forecast read at zero allocations —
// the < 1µs cache-hit budget has no room for GC pressure.
func TestCacheHitZeroAlloc(t *testing.T) {
	c := NewForecastCache(time.Hour, 64, obs.NewRegistry())
	window := []float64{100, 104, 99, 107}
	c.Put("w", 1, window, 3, CachedForecast{Forecasts: []float64{101, 102, 103}})
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get("w", 1, window, 3); !ok {
			t.Fatal("cache miss")
		}
	})
	if allocs >= 1 {
		t.Fatalf("cache hit allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStreamIngestZeroAlloc pins the per-record streaming-ingest path —
// EnqueueObserve (validate, pooled copy, queue send) plus the shard
// worker's drain/apply — at zero allocations. The drain is driven inline
// (workers not started) so AllocsPerRun, which counts process-wide
// mallocs, sees exactly one record's worth of work per run.
func TestStreamIngestZeroAlloc(t *testing.T) {
	f := benchFleet(t)
	actuals := []float64{99, 103, 100, 105}
	sh := f.get("c").shard
	// Warm the pool, the shard scratch slices, and the pending buffer.
	f.RecordForecast("c", []float64{100, 101, 102, 103})
	for i := 0; i < 4; i++ {
		if err := f.EnqueueObserve("c", actuals); err != nil {
			t.Fatal(err)
		}
		f.drainChunk(sh, <-sh.queue)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.EnqueueObserve("c", actuals); err != nil {
			t.Fatal(err)
		}
		f.drainChunk(sh, <-sh.queue)
	})
	if allocs >= 1 {
		t.Fatalf("stream ingest path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStreamIngestRecordFlightZeroAlloc is TestStreamIngestZeroAlloc with
// the flight recorder on (the BenchmarkStreamIngestRecordFlight loop):
// trace minting and the observe.batch event store a fixed-size ring slot,
// so causal tracing adds no allocation to streaming ingest.
func TestStreamIngestRecordFlightZeroAlloc(t *testing.T) {
	f := benchFleetFlight(t, obs.NewFlightRecorder(obs.FlightRecorderOptions{}))
	actuals := []float64{99, 103, 100, 105}
	sh := f.get("c").shard
	f.RecordForecast("c", []float64{100, 101, 102, 103})
	for i := 0; i < 4; i++ {
		if err := f.EnqueueObserve("c", actuals); err != nil {
			t.Fatal(err)
		}
		f.drainChunk(sh, <-sh.queue)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.EnqueueObserve("c", actuals); err != nil {
			t.Fatal(err)
		}
		f.drainChunk(sh, <-sh.queue)
	})
	if allocs >= 1 {
		t.Fatalf("stream ingest with the flight recorder allocates %.1f allocs/op, want 0", allocs)
	}
	if n := len(f.Flight().Events("c")); n == 0 {
		t.Fatal("no observe.batch events recorded")
	}
}

// TestObservePathRecordFlightZeroAlloc is TestObservePathZeroAlloc with
// the flight recorder on.
func TestObservePathRecordFlightZeroAlloc(t *testing.T) {
	f := benchFleetFlight(t, obs.NewFlightRecorder(obs.FlightRecorderOptions{}))
	horizon := []float64{100, 101, 102, 103}
	actuals := []float64{99, 103, 100, 105}
	f.RecordForecast("c", horizon)
	if _, err := f.Observe("c", actuals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.RecordForecast("c", horizon)
		if _, err := f.Observe("c", actuals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("observe path with the flight recorder allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestFlightRingFootprint bounds the recorder's resident heap: 256
// workloads with full 256-event rings of observe.batch events, recorded
// the way noteIngest records them (one request ID shared by a request's
// records), must cost at most 128 heap bytes per resident event.
func TestFlightRingFootprint(t *testing.T) {
	const workloads, perRing = 256, 256
	ids := make([]string, workloads)
	for i := range ids {
		ids[i] = fmt.Sprintf("wl-%03d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := obs.NewFlightRecorder(obs.FlightRecorderOptions{Cap: perRing})
	for i := 0; i < perRing; i++ {
		reqID := fmt.Sprintf("stream-%06d", i)
		for j, id := range ids {
			r.RecordBatch(id, obs.TraceCtx{Trace: r.NewTrace(), RequestID: reqID},
				obs.IngestAttrs{Accepted: 1, Scored: 1, Samples: i, RollingMAPE: float64(j) / 7}, false)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := r.Stats(); st.Workloads[ids[0]] != perRing || len(st.Workloads) != workloads {
		t.Fatalf("rings not full: %d workloads, %d events in %s", len(st.Workloads), st.Workloads[ids[0]], ids[0])
	}
	perEvent := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (workloads * perRing)
	runtime.KeepAlive(r)
	t.Logf("flight recorder: %.1f heap bytes per resident event", perEvent)
	if perEvent > 128 {
		t.Fatalf("flight recorder holds %.1f heap bytes per resident event, want <= 128", perEvent)
	}
}
