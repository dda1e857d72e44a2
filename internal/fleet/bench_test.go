package fleet

import (
	"context"
	"log/slog"
	"testing"
	"time"

	"loaddynamics/internal/obs"
	"loaddynamics/internal/wal"
)

func benchFleet(b testing.TB) *Fleet { return benchFleetFlight(b, nil) }

// benchFleetFlight is benchFleet with the given flight recorder.
func benchFleetFlight(b testing.TB, flight *obs.FlightRecorder) *Fleet {
	b.Helper()
	opts := testOptions(b, "")
	// A fully disabled handler (not just io.Discard) so the benchmarks
	// measure the fleet data path, not slog formatting.
	opts.Logger = slog.New(slog.DiscardHandler)
	opts.Flight = flight
	f, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	m := tinyModel(b, 1)
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := f.Add(id, m); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

func BenchmarkRegistryLookup(b *testing.B) {
	f := benchFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := f.Model("b"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPromotion(b *testing.B) {
	f := benchFleet(b)
	m := tinyModel(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Promote("a", m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastUncached is the steady-state forecast hot path: a
// 3-step rolling forecast into a caller-owned buffer. The pooled core and
// nn workspaces make it allocation-free — benchdiff gates allocs/op at 0.
func BenchmarkForecastUncached(b *testing.B) {
	m := tinyModel(b, 1)
	history := []float64{100, 104, 99, 107, 101, 103}
	out := make([]float64, 3)
	ctx := context.Background()
	if err := m.PredictStepsInto(ctx, history, out); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictStepsInto(ctx, history, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastCached is a forecast served from the TTL cache — the
// path an auto-scaler re-polling the same window hits. Target: < 1µs.
func BenchmarkForecastCached(b *testing.B) {
	c := NewForecastCache(time.Hour, 1024, obs.NewRegistry())
	window := []float64{100, 104, 99, 107}
	c.Put("w", 1, window, CachedForecast{Forecasts: []float64{101, 102, 103}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get("w", 1, window, 3); !ok {
			b.Fatal("cache miss")
		}
	}
}

// forecastBatch is BenchmarkForecastBatch's input: 16 workload histories
// and their caller-owned 3-step horizons.
func forecastBatch() (histories, outs [][]float64) {
	const n = 16
	histories = make([][]float64, n)
	outs = make([][]float64, n)
	for i := range histories {
		histories[i] = []float64{100 + float64(i), 104, 99, 107, 101, 103}
		outs[i] = make([]float64, 3)
	}
	return histories, outs
}

// BenchmarkForecastBatch runs 16 workload forecasts as one fused
// multi-step batch inference (the /v1/forecast:batch inner loop) into
// caller-owned horizons.
func BenchmarkForecastBatch(b *testing.B) {
	m := tinyModel(b, 1)
	histories, outs := forecastBatch()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictStepsBatchInto(ctx, histories, outs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObservePath(b *testing.B) {
	f := benchFleet(b)
	horizon := []float64{100, 101, 102, 103}
	actuals := []float64{99, 103, 100, 105}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RecordForecast("c", horizon)
		if _, err := f.Observe("c", actuals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveWAL is BenchmarkObservePath with the observation WAL in
// the loop: each Observe appends a durable record before touching the
// in-memory rings. The sync sub-benchmarks bound the fsync policies an
// operator chooses between; "off" isolates the pure framing+write cost.
func BenchmarkObserveWAL(b *testing.B) {
	for _, bc := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"sync=off", wal.SyncOff}, {"sync=interval", wal.SyncInterval}, {"sync=always", wal.SyncAlways}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := testOptions(b, "")
			opts.Logger = slog.New(slog.DiscardHandler)
			opts.WAL = wal.Options{
				Dir:          b.TempDir(),
				Sync:         bc.sync,
				SyncInterval: 100 * time.Millisecond,
			}
			f, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			if err := f.Add("c", tinyModel(b, 1)); err != nil {
				b.Fatal(err)
			}
			horizon := []float64{100, 101, 102, 103}
			actuals := []float64{99, 103, 100, 105}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.RecordForecast("c", horizon)
				if _, err := f.Observe("c", actuals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamIngestRecord is the per-record streaming-ingest cost:
// EnqueueObserve (validate, pooled copy, bounded queue send) plus the
// shard worker's drain and apply, driven inline so b.N records mean b.N
// records of work. This is the path BENCH gating pins at 0 allocs/op.
func BenchmarkStreamIngestRecord(b *testing.B) {
	f := benchFleet(b)
	sh := f.get("c").shard
	actuals := []float64{99, 103, 100, 105}
	f.RecordForecast("c", []float64{100, 101, 102, 103})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.EnqueueObserve("c", actuals); err != nil {
			b.Fatal(err)
		}
		f.drainChunk(sh, <-sh.queue)
	}
}

// BenchmarkStreamIngestRecordFlight is BenchmarkStreamIngestRecord with
// the flight recorder on: every record mints a trace and lands an
// observe.batch event in the workload's ring. The delta against the
// recorder-off benchmark is the whole cost of causal tracing on the
// streaming hot path; both runs stay at 0 allocs/op
// (TestStreamIngestRecordFlightZeroAlloc pins this one).
func BenchmarkStreamIngestRecordFlight(b *testing.B) {
	f := benchFleetFlight(b, obs.NewFlightRecorder(obs.FlightRecorderOptions{}))
	sh := f.get("c").shard
	actuals := []float64{99, 103, 100, 105}
	f.RecordForecast("c", []float64{100, 101, 102, 103})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.EnqueueObserve("c", actuals); err != nil {
			b.Fatal(err)
		}
		f.drainChunk(sh, <-sh.queue)
	}
}

// BenchmarkStreamIngestWAL measures the batched-WAL amortization that
// motivates the stream path: chunks of queued records hit the log as one
// wal.Append (one write, one fsync under sync=always) instead of one
// append+fsync per record as in BenchmarkObserveWAL. ns/op is per record.
func BenchmarkStreamIngestWAL(b *testing.B) {
	for _, bc := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"sync=off", wal.SyncOff}, {"sync=always", wal.SyncAlways}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := testOptions(b, "")
			opts.Logger = slog.New(slog.DiscardHandler)
			opts.IngestShards = 1
			opts.IngestChunk = 128
			opts.IngestQueue = 256
			opts.WAL = wal.Options{Dir: b.TempDir(), Sync: bc.sync}
			f, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			if err := f.Add("c", tinyModel(b, 1)); err != nil {
				b.Fatal(err)
			}
			sh := f.shards[0]
			actuals := []float64{99, 103, 100, 105}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				chunk := 128
				if rem := b.N - n; rem < chunk {
					chunk = rem
				}
				for i := 0; i < chunk; i++ {
					if err := f.EnqueueObserve("c", actuals); err != nil {
						b.Fatal(err)
					}
				}
				f.drainChunk(sh, <-sh.queue)
				for f.IngestDepth() > 0 {
					f.drainChunk(sh, <-sh.queue)
				}
				n += chunk
			}
		})
	}
}
