//go:build !race

// Allocation pins for the fleet hot paths. AllocsPerRun is incompatible
// with the race detector's instrumentation, so these assertions are built
// out of -race runs; `make bench`/`make benchdiff` gate the same numbers.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"testing"
	"time"

	"loaddynamics/internal/obs"
	"loaddynamics/internal/wal"
)

// zeroAllocs fails unless fn, after one warm-up call, allocates nothing
// per run. Tolerance below 1 (not an exact 0 compare) because a stray GC
// during the measured runs can empty a sync.Pool elsewhere in the process.
func zeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	fn()
	if allocs := testing.AllocsPerRun(200, fn); allocs >= 1 {
		t.Fatalf("%s allocates %.1f allocs/op, want 0", what, allocs)
	}
}

// TestRegistryLookupZeroAlloc pins the BenchmarkRegistryLookup path.
func TestRegistryLookupZeroAlloc(t *testing.T) {
	f := benchFleet(t)
	zeroAllocs(t, "registry lookup", func() {
		if _, err := f.Model("b"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPromotionZeroAlloc pins the BenchmarkPromotion path: swapping a
// resident model in place.
func TestPromotionZeroAlloc(t *testing.T) {
	f := benchFleet(t)
	m := tinyModel(t, 2)
	zeroAllocs(t, "promotion", func() {
		if err := f.Promote("a", m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForecastUncachedZeroAlloc pins the BenchmarkForecastUncached path: a
// 3-step rolling forecast into a caller-owned buffer.
func TestForecastUncachedZeroAlloc(t *testing.T) {
	m := tinyModel(t, 1)
	history := []float64{100, 104, 99, 107, 101, 103}
	out := make([]float64, 3)
	ctx := context.Background()
	zeroAllocs(t, "uncached forecast", func() {
		if err := m.PredictStepsInto(ctx, history, out); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForecastBatchZeroAlloc pins the BenchmarkForecastBatch path: a
// 16-entry fused batch forecast into caller-owned horizons.
func TestForecastBatchZeroAlloc(t *testing.T) {
	m := tinyModel(t, 1)
	histories, outs := forecastBatch()
	ctx := context.Background()
	zeroAllocs(t, "fused batch forecast", func() {
		if err := m.PredictStepsBatchInto(ctx, histories, outs); err != nil {
			t.Fatal(err)
		}
	})
}

// walFleet is a one-workload fleet logging observations to an unsynced
// WAL, with ingest shaped like BenchmarkStreamIngestWAL.
func walFleet(t *testing.T) *Fleet {
	t.Helper()
	opts := testOptions(t, "")
	opts.Logger = slog.New(slog.DiscardHandler)
	opts.IngestShards = 1
	opts.IngestChunk = 128
	opts.IngestQueue = 256
	opts.WAL = wal.Options{Dir: t.TempDir(), Sync: wal.SyncOff}
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Add("c", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestObserveWALZeroAlloc pins BenchmarkObserveWAL/sync=off: a durable
// observe appends its WAL record without allocating.
func TestObserveWALZeroAlloc(t *testing.T) {
	f := walFleet(t)
	horizon := []float64{100, 101, 102, 103}
	actuals := []float64{99, 103, 100, 105}
	zeroAllocs(t, "observe with the WAL (sync=off)", func() {
		f.RecordForecast("c", horizon)
		if _, err := f.Observe("c", actuals); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStreamIngestWALZeroAlloc pins BenchmarkStreamIngestWAL/sync=off: one
// streamed record enqueued, drained and appended to the WAL as a batch.
func TestStreamIngestWALZeroAlloc(t *testing.T) {
	f := walFleet(t)
	sh := f.shards[0]
	actuals := []float64{99, 103, 100, 105}
	zeroAllocs(t, "stream ingest with the WAL (sync=off)", func() {
		if err := f.EnqueueObserve("c", actuals); err != nil {
			t.Fatal(err)
		}
		f.drainChunk(sh, <-sh.queue)
	})
}

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
	c.Put("w", 1, window, CachedForecast{Forecasts: []float64{101, 102, 103}})
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := c.Get("w", 1, window, 3); !ok {
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
