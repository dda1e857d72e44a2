package fleet

// Tests for the sharded streaming-ingest path (shard.go): shard
// placement, asynchronous apply, explicit backpressure, WAL replay parity
// for streamed records, the resetEval/stream-ingest serialization
// regression, and a -race workout across every concurrent entry point.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/core"
)

// flush fails the test if queued ingest does not settle promptly.
func flush(t *testing.T, f *Fleet) {
	t.Helper()
	if !f.FlushIngest(10 * time.Second) {
		t.Fatalf("ingest queues did not drain (depth %d)", f.IngestDepth())
	}
}

func TestShardForIsStableAndCoversShards(t *testing.T) {
	opts := testOptions(t, "")
	opts.IngestShards = 4
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[*evalShard]bool{}
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("w%d", i)
		if f.shardFor(id) != f.shardFor(id) {
			t.Fatalf("shardFor(%q) is not stable", id)
		}
		seen[f.shardFor(id)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 workloads landed on %d of 4 shards", len(seen))
	}
}

func TestEnqueueObserveAppliesAndScores(t *testing.T) {
	opts := testOptions(t, "")
	opts.IngestShards = 3
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := tinyModel(t, 1)
	ids := []string{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		if err := f.Add(id, m); err != nil {
			t.Fatal(err)
		}
	}
	f.StartIngest()
	f.StartIngest() // idempotent

	const batches = 40
	for i := 0; i < batches; i++ {
		id := ids[i%len(ids)]
		f.RecordForecast(id, []float64{100, 100})
		if err := f.EnqueueObserve(id, []float64{99, 103}); err != nil {
			t.Fatalf("EnqueueObserve(%s): %v", id, err)
		}
	}
	flush(t, f)

	perID := batches / len(ids)
	for _, id := range ids {
		st, err := f.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples == 0 {
			t.Fatalf("workload %q: no scored samples after streamed ingest", id)
		}
		e := f.get(id)
		e.shard.mu.Lock()
		hist := e.eval.history.samples()
		e.shard.mu.Unlock()
		if hist != perID*2 {
			t.Fatalf("workload %q: history %d values, want %d", id, hist, perID*2)
		}
	}
	if enq, app := f.m.ingestEnqueued.Value(), f.m.ingestApplied.Value(); enq != batches || app != batches {
		t.Fatalf("enqueued=%d applied=%d, want %d each", enq, app, batches)
	}
	if dep := f.IngestDepth(); dep != 0 {
		t.Fatalf("IngestDepth = %d after flush", dep)
	}
	if f.m.ingestChunks.Value() == 0 {
		t.Fatal("no ingest chunks recorded")
	}
}

func TestEnqueueObserveValidation(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.EnqueueObserve("nope", []float64{1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := f.EnqueueObserve("w", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {1, -2}} {
		if err := f.EnqueueObserve("w", bad); err == nil {
			t.Fatalf("invalid values %v accepted", bad)
		}
	}
	if v := f.m.ingestEnqueued.Value(); v != 0 {
		t.Fatalf("rejected enqueues counted as admitted: %d", v)
	}
}

// TestObserveRejectsWhatEnqueueRejects pins the shared admission check: a
// batch the stream path refuses is refused by the per-request path too, and
// a refused batch never reaches the WAL.
func TestObserveRejectsWhatEnqueueRejects(t *testing.T) {
	f, err := Open(walOptions(testOptions(t, t.TempDir()), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	before := f.WALStats().Appended
	for _, bad := range [][]float64{nil, {}, {math.NaN()}, {math.Inf(-1)}, {1, -2}} {
		if _, err := f.Observe("w", bad); err == nil {
			t.Errorf("Observe(%v) accepted", bad)
		}
		if err := f.EnqueueObserve("w", bad); err == nil {
			t.Errorf("EnqueueObserve(%v) accepted", bad)
		}
	}
	if got := f.WALStats().Appended; got != before {
		t.Fatalf("rejected batches appended %d WAL records", got-before)
	}
}

// TestIngestBackpressure fills a tiny queue with the drain workers
// stopped: every overflow must surface as ErrIngestQueueFull (counted),
// and starting the workers afterwards applies exactly the admitted
// records — explicit backpressure, zero silent drops.
func TestIngestBackpressure(t *testing.T) {
	opts := testOptions(t, "")
	opts.IngestShards = 1
	opts.IngestQueue = 4
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}

	admitted, rejected := 0, 0
	for i := 0; i < 10; i++ {
		switch err := f.EnqueueObserve("w", []float64{float64(i)}); {
		case err == nil:
			admitted++
		case err == ErrIngestQueueFull:
			rejected++
		default:
			t.Fatalf("unexpected enqueue error: %v", err)
		}
	}
	if admitted != 4 || rejected != 6 {
		t.Fatalf("admitted=%d rejected=%d, want 4/6", admitted, rejected)
	}
	if v := f.m.ingestRejected.Value(); v != 6 {
		t.Fatalf("fleet.ingest.rejected = %d, want 6", v)
	}
	if v := f.IngestDepth(); v != 4 {
		t.Fatalf("IngestDepth = %d, want 4", v)
	}

	f.StartIngest()
	flush(t, f)
	if v := f.m.ingestApplied.Value(); v != 4 {
		t.Fatalf("fleet.ingest.applied = %d, want 4", v)
	}
	st, err := f.Status("w")
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 0 { // nothing scored (no forecasts), but history landed
		t.Fatalf("unexpected scored samples %d", st.Samples)
	}
	e := f.get("w")
	e.shard.mu.Lock()
	hist := e.eval.history.samples()
	e.shard.mu.Unlock()
	if hist != 4 {
		t.Fatalf("history %d values, want the 4 admitted", hist)
	}
}

// TestStreamIngestWALReplayParity closes a fleet mid-stream state and
// reopens it over the same WAL: the replayed evaluator must equal the
// live one for records that arrived through the sharded queue path.
func TestStreamIngestWALReplayParity(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	f := scriptedFleet(t, snapDir, walDir)
	f.StartIngest()
	for i := 0; i < 20; i++ {
		id := "w"
		if i%3 == 0 {
			id = "w2"
		}
		f.RecordForecast(id, []float64{100, 110})
		if err := f.EnqueueObserve(id, []float64{float64(95 + i), float64(100 + i)}); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			f.resetEval(f.get("w"))
		}
	}
	flush(t, f)
	want := map[string]evalState{
		"w":  evalSnapshot(t, f, "w"),
		"w2": evalSnapshot(t, f, "w2"),
	}
	f.Close()

	reopened := scriptedFleetReopen(t, snapDir, walDir)
	defer reopened.Close()
	for id, w := range want {
		got := evalSnapshot(t, reopened, id)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("workload %q: replayed state diverged\n got: %+v\nwant: %+v", id, got, w)
		}
	}
}

// scriptedFleetReopen reopens the scripted fleet over an existing
// snapshot + WAL directory pair.
func scriptedFleetReopen(t *testing.T, snapDir, walDir string) *Fleet {
	t.Helper()
	f, err := Open(walOptions(testOptions(t, snapDir), walDir))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestResetEvalStreamInterleave is the regression for the shard-lock
// serialization fix: resetEval and streaming ingest race on one
// workload's ring, and the invariant is that a reset can never tear a
// streamed batch between its WAL append and its ring mutation. Proof by
// parity: if an interleave lost or reordered an observation, the
// WAL-replayed state could not equal the live in-memory state — and
// every admitted record must be applied (applied == enqueued).
func TestResetEvalStreamInterleave(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	opts := walOptions(testOptions(t, snapDir), walDir)
	opts.IngestShards = 1
	opts.IngestChunk = 4
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyModel(t, 1)
	m.ValError = 5
	if err := f.Add("w", m); err != nil {
		t.Fatal(err)
	}
	f.StartIngest()

	const records = 400
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // streamer
		defer wg.Done()
		for i := 0; i < records; i++ {
			if i%16 == 0 {
				f.RecordForecast("w", []float64{100, 100, 100, 100})
			}
			for {
				err := f.EnqueueObserve("w", []float64{float64(i % 7), float64(100 + i%13)})
				if err == nil {
					break
				}
				if err != ErrIngestQueueFull {
					t.Errorf("EnqueueObserve: %v", err)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	go func() { // drift-resetter
		defer wg.Done()
		e := f.get("w")
		for i := 0; i < 60; i++ {
			f.resetEval(e)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	flush(t, f)

	if enq, app := f.m.ingestEnqueued.Value(), f.m.ingestApplied.Value(); enq != records || app != enq {
		t.Fatalf("lost observations: enqueued=%d applied=%d want %d", enq, app, records)
	}
	want := evalSnapshot(t, f, "w")
	wantObs := f.m.observations.Value()
	f.Close()

	reopened := scriptedFleetReopen(t, snapDir, walDir)
	defer reopened.Close()
	got := evalSnapshot(t, reopened, "w")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state diverged from live state after reset/stream interleave\n got: %+v\nwant: %+v", got, want)
	}
	if g := reopened.m.observations.Value(); g != wantObs {
		t.Fatalf("replayed observations %d, live %d", g, wantObs)
	}
}

// TestConcurrentStreamShardWorkout is the -race workout from the issue:
// stream ingest, synchronous observes, forecasts, promotions, evictions
// and rebuilds all running against the sharded evaluator at once.
func TestConcurrentStreamShardWorkout(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(testOptions(t, dir), t.TempDir())
	opts.ResidentCap = 3
	opts.MinRebuildHistory = 8
	opts.IngestShards = 4
	opts.IngestQueue = 64
	opts.IngestChunk = 8
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	replacement := tinyModel(t, 99)
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		return &core.Result{Best: replacement}, nil
	}
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i)
		if err := f.Add(ids[i], tinyModel(t, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	f.StartIngest()
	defer f.Close()

	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() { // streamers: the new ingest path
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(w+i)%len(ids)]
				if err := f.EnqueueObserve(id, []float64{float64(90 + i%20), 100}); err != nil && err != ErrIngestQueueFull {
					t.Errorf("EnqueueObserve(%s): %v", id, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // forecasters + synchronous observers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(w+i)%len(ids)]
				if m, err := f.Model(id); err != nil || m == nil {
					t.Errorf("Model(%s): %v", id, err)
					return
				}
				f.RecordForecast(id, []float64{100, 101})
				if _, err := f.Observe(id, []float64{float64(95 + i%10)}); err != nil {
					t.Errorf("Observe(%s): %v", id, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // promoter (evictions ride along via ResidentCap)
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := f.Promote(ids[i%len(ids)], replacement); err != nil {
				t.Errorf("Promote: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // rebuild requests → resetEval on completion
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := f.Rebuild(ids[i%len(ids)]); err != nil {
				t.Errorf("Rebuild: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	flush(t, f)

	if enq, app := f.m.ingestEnqueued.Value(), f.m.ingestApplied.Value(); app != enq {
		t.Fatalf("applied %d of %d enqueued", app, enq)
	}
	for _, id := range ids {
		if _, err := f.Status(id); err != nil {
			t.Fatal(err)
		}
	}
}
