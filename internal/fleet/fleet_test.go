package fleet

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"loaddynamics/internal/core"
	"loaddynamics/internal/nn"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/wal"
)

// tinySeries is a deterministic daily-looking JAR series.
func tinySeries(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/12) + rng.NormFloat64()
	}
	return out
}

// tinyModel trains a minimal LSTM in milliseconds.
func tinyModel(t testing.TB, seed int64) *core.Model {
	t.Helper()
	return trainOn(t, tinySeries(seed, 80), seed, 4)
}

// trainOn trains a minimal LSTM with a historyLen window on a 75/25
// train/validate split of series.
func trainOn(t testing.TB, series []float64, seed int64, historyLen int) *core.Model {
	t.Helper()
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Patience = 0
	cut := len(series) * 3 / 4
	m, err := core.TrainSingle(core.Config{Seed: seed, Train: tc},
		series[:cut], series[cut:], core.Hyperparams{HistoryLen: historyLen, CellSize: 2, Layers: 1, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testOptions returns small, fast fleet options on a private registry.
func testOptions(t testing.TB, dir string) Options {
	t.Helper()
	return Options{
		Dir:               dir,
		Window:            8,
		MinSamples:        4,
		DriftThreshold:    50,
		DriftFactor:       3,
		HistoryCap:        256,
		MinRebuildHistory: 32,
		RebuildQueue:      8,
		Metrics:           obs.NewRegistry(),
		// Keep lifecycle logs out of test output.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"gl-30m", "wiki_5m", "a", "A.b-c_9", strings.Repeat("x", MaxIDLen)} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", ".hidden", "..", "a/b", "a b", "ü", strings.Repeat("x", MaxIDLen+1)} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) = nil, want error", bad)
		}
	}
}

func TestAddModelAndStatus(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	m := tinyModel(t, 1)
	if err := f.Add("w1", m); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("w1", m); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if err := f.Add("bad id", m); err == nil {
		t.Fatal("invalid ID accepted")
	}
	got, err := f.Model("w1")
	if err != nil || got != m {
		t.Fatalf("Model(w1) = %p, %v; want %p", got, err, m)
	}
	if _, err := f.Model("nope"); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("Model(nope) err = %v, want ErrUnknownWorkload", err)
	}
	st, err := f.Status("w1")
	if err != nil || !st.Resident || st.ValError != m.ValError {
		t.Fatalf("Status = %+v, %v", st, err)
	}
	if ids := f.IDs(); len(ids) != 1 || ids[0] != "w1" || f.Len() != 1 {
		t.Fatalf("IDs = %v Len = %d", ids, f.Len())
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := tinyModel(t, 1), tinyModel(t, 2)
	if err := f.Add("gl-30m", m1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("wiki-5m", m2); err != nil {
		t.Fatal(err)
	}

	// A fresh fleet over the same directory lazily reloads both workloads.
	f2, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.IDs(); len(got) != 2 || got[0] != "gl-30m" || got[1] != "wiki-5m" {
		t.Fatalf("reopened IDs = %v", got)
	}
	st, err := f2.Status("gl-30m")
	if err != nil || st.Resident {
		t.Fatalf("pre-load status = %+v, %v (want non-resident)", st, err)
	}
	if st.ValError != m1.ValError {
		t.Fatalf("manifest val_error = %v, want %v", st.ValError, m1.ValError)
	}
	got, err := f2.Model("gl-30m")
	if err != nil {
		t.Fatal(err)
	}
	if got.HP != m1.HP || got.ValError != m1.ValError {
		t.Fatalf("reloaded model %+v, want %+v", got.HP, m1.HP)
	}
	reg := f2.opts.Metrics
	if reg.Counter("fleet.misses").Value() != 1 || reg.Counter("fleet.loads").Value() != 1 {
		t.Fatalf("miss/load counters = %d/%d, want 1/1",
			reg.Counter("fleet.misses").Value(), reg.Counter("fleet.loads").Value())
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testOptions(t, dir)); err == nil {
		t.Fatal("version-mismatched manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"version":1,"workloads":[{"id":"a","file":"../escape.json"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testOptions(t, dir)); err == nil {
		t.Fatal("path-escaping snapshot file accepted")
	}
}

func TestPromoteSwapsAtomicallyAndPersists(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := tinyModel(t, 1), tinyModel(t, 2)
	if err := f.Add("w", m1); err != nil {
		t.Fatal(err)
	}
	held, _ := f.Model("w") // an in-flight request's pointer
	if err := f.Promote("w", m2); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Model("w"); got != m2 {
		t.Fatal("promotion did not swap the served model")
	}
	if held != m1 {
		t.Fatal("promotion disturbed the in-flight model pointer")
	}
	if err := f.Promote("nope", m2); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("Promote(nope) err = %v", err)
	}
	// The snapshot on disk now holds m2.
	f2, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.Model("w")
	if err != nil {
		t.Fatal(err)
	}
	if got.HP != m2.HP || got.ValError != m2.ValError {
		t.Fatalf("persisted model %+v, want promoted %+v", got.HP, m2.HP)
	}
	if f.opts.Metrics.Counter("fleet.promotions").Value() != 1 {
		t.Fatal("promotion not counted")
	}
}

func TestReloadWorkload(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := tinyModel(t, 1), tinyModel(t, 2)
	if err := f.Add("w", m1); err != nil {
		t.Fatal(err)
	}
	// Another process (or loadctl) rewrites the snapshot; reload picks it up.
	if err := saveSnapshot(wal.OS(), filepath.Join(dir, snapshotFile("w")), m2); err != nil {
		t.Fatal(err)
	}
	if err := f.ReloadWorkload("w"); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Model("w")
	if got.HP != m2.HP {
		t.Fatalf("reloaded model %+v, want %+v", got.HP, m2.HP)
	}
	// Memory-only fleets cannot reload.
	fm, _ := Open(testOptions(t, ""))
	if err := fm.Add("w", m1); err != nil {
		t.Fatal(err)
	}
	if err := fm.ReloadWorkload("w"); err == nil {
		t.Fatal("memory-only reload succeeded")
	}
}

func TestLRUEvictionUnderResidentCap(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.ResidentCap = 2
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*core.Model{}
	for _, id := range []string{"a", "b", "c"} {
		m := tinyModel(t, int64(len(models)+1))
		models[id] = m
		if err := f.Add(id, m); err != nil {
			t.Fatal(err)
		}
	}
	reg := f.opts.Metrics
	if got := reg.Counter("fleet.evictions").Value(); got != 1 {
		t.Fatalf("evictions after 3 adds with cap 2 = %d, want 1", got)
	}
	if got := reg.Gauge("fleet.resident").Value(); got != 2 {
		t.Fatalf("resident gauge = %d, want 2", got)
	}
	// "a" was the LRU victim; touching it reloads from its snapshot and
	// evicts the new LRU ("b").
	stA, _ := f.Status("a")
	if stA.Resident {
		t.Fatal("a still resident after eviction")
	}
	if _, err := f.Model("a"); err != nil {
		t.Fatal(err)
	}
	stA, _ = f.Status("a")
	stB, _ := f.Status("b")
	if !stA.Resident || stB.Resident {
		t.Fatalf("after reload: a resident=%v b resident=%v, want true/false", stA.Resident, stB.Resident)
	}
	if got := reg.Counter("fleet.evictions").Value(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	// Evaluator state survived eviction-and-reload cycles.
	if _, err := f.Observe("b", []float64{100, 101}); err != nil {
		t.Fatal(err)
	}
	stB, _ = f.Status("b")
	if stB.Resident {
		t.Fatal("Observe must not page the model back in")
	}
}

func TestMemoryOnlyModelsAreNeverEvicted(t *testing.T) {
	opts := testOptions(t, "")
	opts.ResidentCap = 1
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add("a", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("b", tinyModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	// Without snapshots eviction would lose models forever; both must serve.
	for _, id := range []string{"a", "b"} {
		if _, err := f.Model(id); err != nil {
			t.Fatalf("Model(%s): %v", id, err)
		}
	}
	if got := f.opts.Metrics.Counter("fleet.evictions").Value(); got != 0 {
		t.Fatalf("evictions = %d, want 0", got)
	}
}

// TestConcurrentForecastObservePromoteEvict is the -race workout of the
// acceptance criteria: lookups, observations, promotions, manual rebuilds
// and cap-driven evictions all running against one registry.
func TestConcurrentForecastObservePromoteEvict(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.ResidentCap = 2
	opts.MinRebuildHistory = 8
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	replacement := tinyModel(t, 99)
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		return &core.Result{Best: replacement}, nil
	}
	ids := []string{"w0", "w1", "w2", "w3"}
	for i, id := range ids {
		if err := f.Add(id, tinyModel(t, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() { // forecasters: lookup + record
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(w+i)%len(ids)]
				m, err := f.Model(id)
				if err != nil || m == nil {
					t.Errorf("Model(%s): %v", id, err)
					return
				}
				f.RecordForecast(id, []float64{100, 101})
			}
		}()
		wg.Add(1)
		go func() { // observers: score + possibly drift
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(w+i)%len(ids)]
				if _, err := f.Observe(id, []float64{float64(90 + i%20), 100}); err != nil {
					t.Errorf("Observe(%s): %v", id, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // promoter
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := f.Promote(ids[i%len(ids)], replacement); err != nil {
				t.Errorf("Promote: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // manual rebuild requests
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := f.Rebuild(ids[i%len(ids)]); err != nil {
				t.Errorf("Rebuild: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	for _, id := range ids {
		m, err := f.Model(id)
		if err != nil || m == nil {
			t.Fatalf("post-race Model(%s): %v", id, err)
		}
	}
}

// TestColdStartMetrics checks the restart-cost metrics: fleet.load_seconds
// observes every snapshot load — lazy load, eviction reload and
// ReloadWorkload — and fleet.wal.replay_ns holds the time Open spent
// recovering and replaying the WAL.
func TestColdStartMetrics(t *testing.T) {
	dir, walDir := t.TempDir(), t.TempDir()
	f, err := Open(walOptions(testOptions(t, dir), walDir))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"a", "b"} {
		if err := f.Add(id, tinyModel(t, int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Observe(id, []float64{100, 101, 102}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.opts.Metrics.Histogram("fleet.load_seconds").Count(); got != 0 {
		t.Fatalf("load_seconds count %d after Add alone, want 0", got)
	}
	f.Close()

	opts := walOptions(testOptions(t, dir), walDir)
	opts.ResidentCap = 1
	f, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reg := opts.Metrics
	if got := reg.Gauge("fleet.wal.replay_ns").Value(); got <= 0 {
		t.Fatalf("fleet.wal.replay_ns = %d after replaying %d records, want > 0",
			got, reg.Counter("fleet.wal.replayed").Value())
	}
	loads := reg.Histogram("fleet.load_seconds")
	steps := []struct {
		name string
		do   func() error
	}{
		{"lazy load of a", func() error { _, err := f.Model("a"); return err }},
		{"lazy load of b, evicting a", func() error { _, err := f.Model("b"); return err }},
		{"eviction reload of a", func() error { _, err := f.Model("a"); return err }},
		{"ReloadWorkload of b", func() error { return f.ReloadWorkload("b") }},
	}
	for i, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := loads.Count(); got != int64(i+1) {
			t.Fatalf("after %s: load_seconds count %d, want %d", s.name, got, i+1)
		}
	}
	if _, err := f.Model("b"); err != nil { // resident after the reload: a hit
		t.Fatal(err)
	}
	if got := loads.Count(); got != int64(len(steps)) || loads.Sum() <= 0 {
		t.Fatalf("load_seconds count %d sum %v after a hit, want %d and > 0", got, loads.Sum(), len(steps))
	}
}
