package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/nn"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/serve"
)

// series is a small deterministic JAR series around level 100.
func series(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/12) + rng.NormFloat64()
	}
	return out
}

// tinyConfig trains in milliseconds.
func tinyConfig(seed int64) core.Config {
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Patience = 0
	return core.Config{Seed: seed, Train: tc}
}

// tinyModel trains a milliseconds-scale LSTM with the given cell size, so
// two calls with different arguments serve visibly different forecasts.
func tinyModel(t *testing.T, seed int64, cells int) *core.Model {
	t.Helper()
	s := series(seed, 80)
	m, err := core.TrainSingle(tinyConfig(seed), s[:60], s[60:],
		core.Hyperparams{HistoryLen: 4, CellSize: cells, Layers: 1, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func saveModel(t *testing.T, m *core.Model, path string) {
	t.Helper()
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// testFleet runs startFleet on a private registry with logs discarded and
// serves the result over HTTP until the test ends.
func testFleet(t *testing.T, modelPath string, fopts fleet.Options, sopts serve.Options) (*fleet.Fleet, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	fopts.Metrics, fopts.Logger, fopts.Build.Logger = reg, quiet, quiet
	sopts.Metrics, sopts.Logger = reg, quiet
	ctx, cancel := context.WithCancel(context.Background())
	fl, srv, err := startFleet(ctx, modelPath, fopts, sopts)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		cancel()
		fl.Close()
	})
	return fl, ts
}

func post(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// forecast posts one forecast for id and returns it with the cache verdict.
func forecast(t *testing.T, ts *httptest.Server, id string, history []float64, steps int) ([]float64, string) {
	t.Helper()
	resp := post(t, ts.URL+"/v1/workloads/"+id+"/forecast", serve.ForecastRequest{History: history, Steps: steps})
	return decode[serve.ForecastResponse](t, resp).Forecasts, resp.Header.Get("X-Forecast-Cache")
}

func version(t *testing.T, fl *fleet.Fleet, id string) int64 {
	t.Helper()
	_, v, err := fl.ModelWithVersion(id)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func sameForecasts(t *testing.T, got []float64, m *core.Model, history []float64, steps int) {
	t.Helper()
	want, err := m.PredictSteps(history, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d forecasts, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("forecast %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestModelModeRebuildsDriftedWorkload drives the -model workload into
// drift over HTTP and waits for the background rebuild's verdict: -model
// runs the same Start/StartIngest lifecycle as -models, so a queued
// rebuild actually runs instead of leaving the workload rebuilding forever.
func TestModelModeRebuildsDriftedWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	saveModel(t, tinyModel(t, 1, 2), path)
	build := tinyConfig(7)
	build.Space = core.ScaledSpace(4, 2, 1, 8)
	build.MaxIters, build.InitPoints = 2, 2
	build.Scaler, build.Parallel = "minmax", 1
	fl, ts := testFleet(t, path, fleet.Options{
		Window:            8,
		MinSamples:        4,
		DriftThreshold:    50,
		HistoryCap:        256,
		MinRebuildHistory: 32,
		RebuildBudget:     time.Minute,
		Build:             build,
	}, serve.Options{})
	url := ts.URL + "/v1/workloads/" + modelWorkload

	// Seed rebuild history, then score two wildly-off forecasts.
	post(t, url+"/observe", serve.ObserveRequest{Values: series(5, 64)})
	hist := series(9, 24)
	var st fleet.Status
	for i := 0; i < 2; i++ {
		forecast(t, ts, modelWorkload, hist, 2)
		st = decode[fleet.Status](t, post(t, url+"/observe", serve.ObserveRequest{Values: []float64{1000, 1000}}))
	}
	if !st.Drift || !st.RebuildQueued {
		t.Fatalf("status after shift %+v, want drift and a queued rebuild", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		ws, err := fl.Status(modelWorkload)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Rebuilds >= 1 && !ws.Rebuilding {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild verdict: %+v", ws)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReloadPromotesThroughFleet pins SIGHUP's reload: a replaced file
// serves at a higher version with its cached forecasts invalidated, and a
// corrupt file is an error that leaves the old model serving.
func TestReloadPromotesThroughFleet(t *testing.T) {
	hist := series(9, 24)

	t.Run("model", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "model.json")
		saveModel(t, tinyModel(t, 1, 2), path)
		fl, ts := testFleet(t, path, fleet.Options{}, serve.Options{ForecastCacheTTL: time.Minute})
		forecast(t, ts, modelWorkload, hist, 2)
		if _, cache := forecast(t, ts, modelWorkload, hist, 2); cache != "hit" {
			t.Fatalf("repeat forecast cache %q, want hit", cache)
		}
		v1 := version(t, fl, modelWorkload)

		m2 := tinyModel(t, 2, 3)
		saveModel(t, m2, path)
		if err := reload(fl, path); err != nil {
			t.Fatal(err)
		}
		v2 := version(t, fl, modelWorkload)
		if v2 <= v1 {
			t.Fatalf("version %d after reload, want > %d", v2, v1)
		}
		got, cache := forecast(t, ts, modelWorkload, hist, 2)
		if cache != "miss" {
			t.Fatalf("forecast cache %q after reload, want miss", cache)
		}
		sameForecasts(t, got, m2, hist, 2)

		if err := os.WriteFile(path, []byte(`{"version":1,"garbage":`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := reload(fl, path); err == nil {
			t.Fatal("reload of a corrupt file succeeded")
		}
		if v := version(t, fl, modelWorkload); v != v2 {
			t.Fatalf("version %d after failed reload, want %d", v, v2)
		}
		got, _ = forecast(t, ts, modelWorkload, hist, 3)
		sameForecasts(t, got, m2, hist, 3)
	})

	t.Run("models", func(t *testing.T) {
		dir := seedDir(t, "a", "b")
		fl, ts := testFleet(t, "", fleet.Options{Dir: dir}, serve.Options{})
		va, vb := version(t, fl, "a"), version(t, fl, "b")
		if err := reload(fl, ""); err != nil {
			t.Fatal(err)
		}
		if version(t, fl, "a") <= va || version(t, fl, "b") <= vb {
			t.Fatal("reload did not promote every workload")
		}

		// A corrupt snapshot fails its own workload only.
		va, vb = version(t, fl, "a"), version(t, fl, "b")
		old, _ := fl.Model("a")
		if err := os.WriteFile(filepath.Join(dir, "a.model.json"), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := reload(fl, "")
		if err == nil || !strings.Contains(err.Error(), `"a"`) {
			t.Fatalf("reload error %v, want one naming workload a", err)
		}
		if version(t, fl, "a") != va || version(t, fl, "b") <= vb {
			t.Fatal("failed reload changed a, or skipped b")
		}
		got, _ := forecast(t, ts, "a", hist, 1)
		sameForecasts(t, got, old, hist, 1)
	})

	// Under a resident cap every workload, evicted or not, still reloads
	// and serves its snapshot, and the cap holds afterwards.
	t.Run("resident-cap", func(t *testing.T) {
		ids := []string{"a", "b", "c"}
		dir := seedDir(t, ids...)
		fl, ts := testFleet(t, "", fleet.Options{Dir: dir, ResidentCap: 1}, serve.Options{})
		before := make(map[string]int64, len(ids))
		for _, id := range ids {
			before[id] = version(t, fl, id)
		}
		if err := reload(fl, ""); err != nil {
			t.Fatal(err)
		}
		resident := 0
		for _, st := range fl.Statuses() {
			if st.Resident {
				resident++
			}
		}
		if resident > 1 {
			t.Fatalf("%d workloads resident after reload, cap is 1", resident)
		}
		for _, id := range ids {
			if v := version(t, fl, id); v <= before[id] {
				t.Fatalf("workload %s version %d after reload, want > %d", id, v, before[id])
			}
			m, err := core.LoadFile(filepath.Join(dir, id+".model.json"))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := forecast(t, ts, id, hist, 2)
			sameForecasts(t, got, m, hist, 2)
		}
	})
}

// seedDir writes a snapshot directory holding one tiny model per id, as
// 'loadctl fleet' would, and returns it.
func seedDir(t *testing.T, ids ...string) string {
	t.Helper()
	dir := t.TempDir()
	seed, err := fleet.Open(fleet.Options{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := seed.Add(id, tinyModel(t, int64(i+1), 2)); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()
	return dir
}
