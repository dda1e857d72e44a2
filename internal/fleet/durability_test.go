package fleet

// Crash-safety tests: WAL replay parity under a crash matrix (the log
// killed at every byte offset), degraded memory-only mode on injected
// disk faults, durable manifest/snapshot persistence ordering, and the
// rebuild backoff/circuit-breaker schedule.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/wal"
	"loaddynamics/internal/wal/faultfs"
)

// walOptions enables the WAL for a fleet options value.
func walOptions(opts Options, dir string) Options {
	opts.WAL = wal.Options{Dir: dir}
	return opts
}

// scriptOptions are the options of a fleet that runs runScript: WAL on,
// and one ingest shard, so the script's streamed records for both
// workloads drain as one chunk and land as one multi-record wal.Append.
func scriptOptions(t *testing.T, snapDir, walDir string) Options {
	t.Helper()
	opts := walOptions(testOptions(t, snapDir), walDir)
	opts.IngestShards = 1
	return opts
}

// evalSnapshot copies one workload's evaluator state for comparison. The
// pending slice is deep-copied (and re-sliced to nil when empty) so
// reflect.DeepEqual compares contents, not capacities; the rings compare
// as they are (DeepEqual ignores slice capacity, and an emptied ring has
// released its array, like one never pushed to).
func evalSnapshot(t *testing.T, f *Fleet, id string) evalState {
	t.Helper()
	e := f.get(id)
	if e == nil {
		t.Fatalf("workload %q missing", id)
	}
	e.shard.mu.Lock()
	defer e.shard.mu.Unlock()
	s := e.eval
	s.pending = append([]float64(nil), s.pending...)
	return s
}

// copyDir clones a flat directory of regular files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// scriptedFleet opens a manifest-backed fleet with two workloads and runs
// the event script that the parity tests replay: plain history, scored
// forecasts, a drift transition, an evaluator reset, and post-reset
// traffic, interleaved across workloads.
func scriptedFleet(t *testing.T, snapDir, walDir string) *Fleet {
	t.Helper()
	f, err := Open(scriptOptions(t, snapDir, walDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w", "w2"} {
		m := tinyModel(t, 1)
		m.ValError = 5
		if err := f.Add(id, m); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func runScript(t *testing.T, f *Fleet) {
	t.Helper()
	mustObserve := func(id string, vals []float64) {
		t.Helper()
		if _, err := f.Observe(id, vals); err != nil {
			t.Fatal(err)
		}
	}
	mustObserve("w", tinySeries(3, 8))
	f.RecordForecast("w", []float64{100, 100, 100, 100})
	mustObserve("w2", tinySeries(4, 6))
	mustObserve("w", []float64{90, 95, 100, 105}) // scored, low error
	f.RecordForecast("w", []float64{100, 100, 100, 100})
	f.RecordForecast("w2", []float64{50, 50})
	mustObserve("w", []float64{1, 2, 1, 2}) // scored, huge error → drift
	mustObserve("w2", []float64{48, 52})
	// A streamed chunk: records queued before the drain workers start are
	// applied as one chunk, one multi-record WAL append, so the crash
	// matrix also cuts inside a batched write.
	for _, r := range []struct {
		id   string
		vals []float64
	}{{"w", []float64{3, 4}}, {"w2", []float64{51}}, {"w", []float64{5}}} {
		if err := f.EnqueueObserve(r.id, r.vals); err != nil {
			t.Fatal(err)
		}
	}
	chunks := f.m.ingestChunks.Value()
	f.StartIngest()
	if !f.FlushIngest(5 * time.Second) {
		t.Fatal("streamed records not applied")
	}
	if n := f.m.ingestChunks.Value() - chunks; n != 1 {
		t.Fatalf("streamed records drained in %d chunks, want 1", n)
	}
	f.resetEval(f.get("w")) // rebuild verdict: windows clear, reset logged
	f.RecordForecast("w", []float64{10, 10})
	mustObserve("w", []float64{9, 11})
}

// oracleFromWAL builds a fresh WAL-less fleet over the same manifest and
// applies the surviving records of walDir as live calls — the ground truth
// a replayed boot must match bit-for-bit.
func oracleFromWAL(t *testing.T, snapDir, walDir string) *Fleet {
	t.Helper()
	oracle, err := Open(testOptions(t, snapDir))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer wl.Close()
	err = wl.Replay(func(rec wal.Record) error {
		vals := append([]float64(nil), rec.Values...)
		switch rec.Kind {
		case walKindObserve:
			_, oerr := oracle.Observe(rec.Workload, vals)
			return oerr
		case walKindForecast:
			oracle.RecordForecast(rec.Workload, vals)
		case walKindReset:
			oracle.resetEval(oracle.get(rec.Workload))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// requireParity asserts replayed fleet state equals the oracle's:
// evaluator state per workload plus the observation, drift-transition and
// rolling-MAPE metrics.
func requireParity(t *testing.T, label string, got, oracle *Fleet) {
	t.Helper()
	for _, id := range []string{"w", "w2"} {
		gs, os_ := evalSnapshot(t, got, id), evalSnapshot(t, oracle, id)
		if !reflect.DeepEqual(gs, os_) {
			t.Fatalf("%s: workload %q evaluator state diverged\n got: %+v\nwant: %+v", label, id, gs, os_)
		}
		gm := got.m.reg.Gauge("fleet.rolling_mape_pct." + id).Value()
		om := oracle.m.reg.Gauge("fleet.rolling_mape_pct." + id).Value()
		if gm != om {
			t.Fatalf("%s: workload %q rolling-MAPE gauge %d, oracle %d", label, id, gm, om)
		}
	}
	if g, o := got.m.observations.Value(), oracle.m.observations.Value(); g != o {
		t.Fatalf("%s: fleet.observations %d, oracle %d", label, g, o)
	}
	if g, o := got.m.drift.Value(), oracle.m.drift.Value(); g != o {
		t.Fatalf("%s: fleet.drift %d, oracle %d", label, g, o)
	}
}

// TestWALReplayParityCrashMatrix kills the log at EVERY byte offset of
// the segment and proves a reopened fleet replays to exactly the state a
// live process reaches when fed the surviving records.
func TestWALReplayParityCrashMatrix(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	f := scriptedFleet(t, snapDir, walDir)
	runScript(t, f)
	f.Close()

	segName := "0000000000000001.wal"
	seg, err := os.ReadFile(filepath.Join(walDir, segName))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := os.ReadDir(walDir); len(n) != 1 {
		t.Fatalf("expected a single segment, got %d files", len(n))
	}

	for cut := 0; cut <= len(seg); cut++ {
		// Two independent copies of the "crashed" disk: one for the
		// replayed boot, one for the oracle's record extraction (each
		// Open truncates the torn tail of its own copy).
		crashed := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashed, segName), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		oracleWAL := copyDir(t, crashed)

		replayed, err := Open(walOptions(testOptions(t, snapDir), crashed))
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if replayed.DurabilityDegraded() {
			t.Fatalf("cut=%d: tail recovery reported degraded durability", cut)
		}
		oracle := oracleFromWAL(t, snapDir, oracleWAL)
		requireParity(t, fmt.Sprintf("cut=%d", cut), replayed, oracle)

		// The reopened fleet must keep ingesting durably after recovery.
		if _, err := replayed.Observe("w", []float64{42}); err != nil {
			t.Fatalf("cut=%d: observe after recovery: %v", cut, err)
		}
		if replayed.WALStats().Appended == 0 {
			t.Fatalf("cut=%d: post-recovery observe was not logged", cut)
		}
		replayed.Close()
		oracle.Close()
	}
}

// TestWALRotationReplayParity replays a multi-segment log (tiny segment
// cap forces rotation mid-script) back to oracle state.
func TestWALRotationReplayParity(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	opts := scriptOptions(t, snapDir, walDir)
	opts.WAL.SegmentBytes = 128
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w", "w2"} {
		m := tinyModel(t, 1)
		m.ValError = 5
		if err := f.Add(id, m); err != nil {
			t.Fatal(err)
		}
	}
	runScript(t, f)
	f.Close()

	oracleWAL := copyDir(t, walDir)
	// Fresh options (and a fresh metrics registry — the live run above
	// already counted into opts') for the replayed boot.
	reopts := walOptions(testOptions(t, snapDir), walDir)
	reopts.WAL.SegmentBytes = 128
	reopened, err := Open(reopts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.WALStats().Segments < 2 {
		t.Fatalf("script did not rotate: %d segments", reopened.WALStats().Segments)
	}
	oracle := oracleFromWAL(t, snapDir, oracleWAL)
	defer oracle.Close()
	requireParity(t, "rotated", reopened, oracle)
}

// TestWALDegradedOnAppendFailure proves the acceptance property: a WAL
// write error degrades ingest to memory-only without dropping the request.
func TestWALDegradedOnAppendFailure(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	ffs := faultfs.New(nil)
	opts := walOptions(testOptions(t, snapDir), walDir)
	opts.WAL.FS = ffs
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := tinyModel(t, 1)
	if err := f.Add("w", m); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("w", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if f.DurabilityDegraded() {
		t.Fatal("degraded before any fault")
	}

	ffs.FailWrites(0, 0)
	st, err := f.Observe("w", []float64{3, 4})
	if err != nil {
		t.Fatalf("observe during WAL failure returned error: %v", err)
	}
	if st.Accepted != 2 {
		t.Fatalf("observation dropped during WAL failure: %+v", st)
	}
	if !f.DurabilityDegraded() {
		t.Fatal("DurabilityDegraded false after append failure")
	}
	if v := f.m.walAppendFailures.Value(); v != 1 {
		t.Fatalf("fleet.wal.append_failures = %d, want 1", v)
	}
	if v := f.m.walDegraded.Value(); v != 1 {
		t.Fatalf("fleet.wal.degraded = %d, want 1", v)
	}

	// Later ingest skips the WAL entirely (no further failures counted)
	// and the in-memory evaluator keeps advancing.
	ffs.Reset()
	if _, err := f.Observe("w", []float64{5}); err != nil {
		t.Fatal(err)
	}
	if v := f.m.walAppendFailures.Value(); v != 1 {
		t.Fatalf("degraded fleet still hitting the WAL: %d append failures", v)
	}
	if s := evalSnapshot(t, f, "w"); s.history.samples() != 5 {
		t.Fatalf("history %d samples after degraded ingest, want 5", s.history.samples())
	}
}

// TestWALCrashAfterFsyncFailure: the fsync fails (latching the log), the
// process "crashes", and the reopened fleet replays the durable prefix —
// parity with an oracle over the surviving records.
func TestWALCrashAfterFsyncFailure(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	ffs := faultfs.New(nil)
	opts := walOptions(testOptions(t, snapDir), walDir)
	opts.WAL.FS = ffs
	f := func() *Fleet {
		f, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}()
	for _, id := range []string{"w", "w2"} {
		m := tinyModel(t, 1)
		m.ValError = 5
		if err := f.Add(id, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Observe("w", tinySeries(3, 8)); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncs(2) // two more appends land durably, then fsync dies
	f.RecordForecast("w", []float64{100, 100})
	if _, err := f.Observe("w", []float64{95, 105}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("w2", []float64{7}); err != nil { // fsync fails here
		t.Fatal(err)
	}
	if !f.DurabilityDegraded() {
		t.Fatal("fsync failure did not degrade")
	}
	f.Close() // the "crash": latched log, Close skips the final sync

	oracleWAL := copyDir(t, walDir)
	reopened, err := Open(walOptions(testOptions(t, snapDir), walDir))
	if err != nil {
		t.Fatalf("reopen after fsync crash: %v", err)
	}
	defer reopened.Close()
	oracle := oracleFromWAL(t, snapDir, oracleWAL)
	defer oracle.Close()
	requireParity(t, "fsync-crash", reopened, oracle)
}

// TestWALReplaySkipsUnknownWorkloads: records for workloads the manifest
// no longer lists, and record kinds this build does not know, are counted
// and skipped, not fatal — and a skipped kind leaves its workload's
// evaluator state exactly as the known records made it.
func TestWALReplaySkipsUnknownWorkloads(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	f0, err := Open(testOptions(t, snapDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := f0.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	f0.Close()

	wl, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Append(
		wal.Record{Kind: walKindObserve, Workload: "ghost", Values: []float64{1, 2}},
		wal.Record{Kind: walKindForecast, Workload: "w", Values: []float64{10, 10}},
		wal.Record{Kind: walKindObserve, Workload: "w", Values: []float64{9}},
		wal.Record{Kind: 9, Workload: "w", Values: []float64{7, 8}},
		wal.Record{Kind: walKindObserve, Workload: "w", Values: []float64{11}},
	); err != nil {
		t.Fatal(err)
	}
	wl.Close()

	f, err := Open(walOptions(testOptions(t, snapDir), walDir))
	if err != nil {
		t.Fatalf("Open over foreign records: %v", err)
	}
	defer f.Close()
	if v := f.m.walReplaySkipped.Value(); v != 2 {
		t.Fatalf("fleet.wal.replay_skipped = %d, want 2", v)
	}
	if f.DurabilityDegraded() {
		t.Fatal("skipped records degraded durability")
	}

	// The oracle sees only the known records for w.
	oracle, err := Open(testOptions(t, snapDir))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	oracle.RecordForecast("w", []float64{10, 10})
	for _, v := range []float64{9, 11} {
		if _, err := oracle.Observe("w", []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := evalSnapshot(t, f, "w"), evalSnapshot(t, oracle, "w"); !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown record kind changed evaluator state\n got: %+v\nwant: %+v", got, want)
	}
}

// TestWALMidLogCorruptionDegrades: a corrupt non-tail segment makes replay
// fail; the fleet boots anyway, memory-only, with durability degraded.
func TestWALMidLogCorruptionDegrades(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	opts := scriptOptions(t, snapDir, walDir)
	opts.WAL.SegmentBytes = 96 // tiny cap forces rotation mid-script
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w", "w2"} {
		m := tinyModel(t, 1)
		m.ValError = 5
		if err := f.Add(id, m); err != nil {
			t.Fatal(err)
		}
	}
	runScript(t, f)
	f.Close()
	segs, _ := os.ReadDir(walDir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	first := filepath.Join(walDir, segs[0].Name())
	data, _ := os.ReadFile(first)
	data[len(data)-1] ^= 0xff
	os.WriteFile(first, data, 0o644)

	reopened, err := Open(opts)
	if err != nil {
		t.Fatalf("boot over corrupt middle segment failed: %v", err)
	}
	defer reopened.Close()
	if !reopened.DurabilityDegraded() {
		t.Fatal("mid-log corruption did not degrade durability")
	}
	// Ingest still works, memory-only.
	if _, err := reopened.Observe("w", []float64{1}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDurabilityOrdering asserts the POSIX durability protocol on
// every snapshot/manifest install: temp write → file fsync → rename →
// parent directory fsync, in that order.
func TestSnapshotDurabilityOrdering(t *testing.T) {
	ffs := faultfs.New(nil)
	opts := testOptions(t, t.TempDir())
	opts.FS = ffs
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}

	ops := ffs.Ops()
	// Two installs (snapshot, then manifest), each: sync of the temp file
	// strictly before its rename, and a directory sync strictly after.
	for _, target := range []string{"w.model.json", "manifest.json"} {
		syncAt, renameAt, dirSyncAt := -1, -1, -1
		for i, op := range ops {
			switch {
			case strings.HasPrefix(op, "sync:") && strings.Contains(op, target+".tmp"):
				if syncAt < 0 {
					syncAt = i
				}
			case strings.HasPrefix(op, "rename:") && strings.Contains(op, target):
				renameAt = i
			case strings.HasPrefix(op, "syncdir:") && renameAt >= 0 && dirSyncAt < 0 && i > renameAt:
				dirSyncAt = i
			}
		}
		if !(syncAt >= 0 && renameAt > syncAt && dirSyncAt > renameAt) {
			t.Fatalf("%s: durability protocol violated (sync=%d rename=%d syncdir=%d)\nops: %v",
				target, syncAt, renameAt, dirSyncAt, ops)
		}
	}
}

// TestSnapshotFsyncFailureSurfaces: a failed temp-file fsync fails the Add
// (no silent non-durable install).
func TestSnapshotFsyncFailureSurfaces(t *testing.T) {
	ffs := faultfs.New(nil)
	opts := testOptions(t, t.TempDir())
	opts.FS = ffs
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ffs.FailSyncs(0)
	if err := f.Add("w", tinyModel(t, 1)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Add with failing fsync: %v, want injected error", err)
	}
}

// TestBackoffDelay pins the backoff schedule: exponential growth, cap,
// deterministic ±20% jitter.
func TestBackoffDelay(t *testing.T) {
	base, max := 30*time.Second, 15*time.Minute
	for streak := int64(1); streak <= 12; streak++ {
		d := backoffDelay(base, max, streak, "w")
		ideal := base << uint(streak-1)
		if ideal > max || ideal <= 0 {
			ideal = max
		}
		lo := time.Duration(float64(ideal) * 0.8)
		hi := time.Duration(float64(ideal) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("streak %d: delay %v outside [%v, %v]", streak, d, lo, hi)
		}
		if again := backoffDelay(base, max, streak, "w"); again != d {
			t.Fatalf("streak %d: jitter not deterministic (%v vs %v)", streak, d, again)
		}
	}
	if a, b := backoffDelay(base, max, 3, "w"), backoffDelay(base, max, 3, "other"); a == b {
		t.Fatal("jitter identical across workloads — retries would align in lockstep")
	}
	if d := backoffDelay(0, max, 5, "w"); d != 0 {
		t.Fatalf("zero base produced delay %v", d)
	}
}

// TestRebuildBackoffAndBreaker drives the failure path end to end: failed
// rebuilds defer retries, enough failures open the breaker (rejecting
// requests), the cooldown admits a half-open probe, and a completed
// rebuild closes the breaker and clears the streak.
func TestRebuildBackoffAndBreaker(t *testing.T) {
	opts := testOptions(t, "")
	opts.RebuildBreakerFailures = 2
	opts.RebuildBackoff = time.Millisecond
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		if fail {
			return nil, errors.New("injected build failure")
		}
		m := tinyModel(t, 2)
		m.ValError = 0.001
		return &core.Result{Best: m}, nil
	}
	m := tinyModel(t, 1)
	m.ValError = 1e9
	if err := f.Add("w", m); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("w", tinySeries(5, 64)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	e := f.get("w")
	rebuild := func(wantQueued bool, label string) {
		t.Helper()
		queued, err := f.Rebuild("w")
		if err != nil {
			t.Fatal(err)
		}
		if queued != wantQueued {
			t.Fatalf("%s: queued=%v, want %v", label, queued, wantQueued)
		}
	}

	// Failure 1: streak 1, backoff armed.
	rebuild(true, "first attempt")
	waitFor(t, 5*time.Second, "first failure", func() bool { return e.failStreak.Load() == 1 })
	if e.nextAttempt.Load() <= time.Now().Add(-time.Second).UnixNano() {
		t.Fatal("backoff not armed after failure")
	}

	// While backoff holds, requests are deferred.
	e.nextAttempt.Store(time.Now().Add(time.Hour).UnixNano())
	rebuild(false, "within backoff")
	if v := f.m.rebuildDeferred.Value(); v != 1 {
		t.Fatalf("fleet.rebuilds.deferred = %d, want 1", v)
	}

	// Failure 2 (backoff elapsed): breaker opens.
	e.nextAttempt.Store(0)
	rebuild(true, "second attempt")
	waitFor(t, 5*time.Second, "breaker open", func() bool { return e.breakerOpen.Load() })
	if v := f.m.breakerOpened.Value(); v != 1 {
		t.Fatalf("fleet.rebuilds.breaker_opened = %d, want 1", v)
	}
	if v := f.m.breakerOpen.Value(); v != 1 {
		t.Fatalf("fleet.rebuild.breaker_open gauge = %d, want 1", v)
	}

	// Open breaker rejects outright.
	rebuild(false, "breaker open")
	if v := f.m.breakerRejected.Value(); v != 1 {
		t.Fatalf("fleet.rebuilds.breaker_rejected = %d, want 1", v)
	}

	// Cooldown over: one half-open probe goes through and succeeds —
	// breaker closes, streak clears, gauge returns to zero.
	fail = false
	e.breakerUntil.Store(time.Now().Add(-time.Second).UnixNano())
	rebuild(true, "half-open probe")
	waitFor(t, 5*time.Second, "breaker close", func() bool { return !e.breakerOpen.Load() })
	if e.failStreak.Load() != 0 || e.nextAttempt.Load() != 0 {
		t.Fatal("completed rebuild did not clear the failure streak")
	}
	if v := f.m.breakerOpen.Value(); v != 0 {
		t.Fatalf("fleet.rebuild.breaker_open gauge = %d after close, want 0", v)
	}
	if v := f.m.reg.Counter("fleet.rebuilds.ok").Value(); v != 1 {
		t.Fatalf("fleet.rebuilds.ok = %d, want 1", v)
	}
}
