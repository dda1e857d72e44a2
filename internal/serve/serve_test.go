package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/nn"
)

// testModel trains a small model once per test binary.
func testModel(t *testing.T) (*core.Model, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 260)
	for i := range series {
		series[i] = 1000 + 400*math.Sin(2*math.Pi*float64(i)/24) + 5*rng.NormFloat64()
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 15
	tc.Patience = 3
	m, err := core.TrainSingle(core.Config{Seed: 1, Train: tc},
		series[:200], series[200:], core.Hyperparams{HistoryLen: 12, CellSize: 6, Layers: 1, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	return m, series
}

// testWorkload is the one workload newTestServerOpts serves.
const testWorkload = "default"

// forecastPath is the forecast route of the test server's workload.
const forecastPath = "/v1/workloads/" + testWorkload + "/forecast"

// newTestServerOpts serves testModel as a one-workload memory-only fleet.
// The fleet shares the server's registry, logger and flight recorder, and
// is closed when the test ends.
func newTestServerOpts(t *testing.T, opts Options) (*httptest.Server, *Server, *core.Model, []float64) {
	t.Helper()
	m, series := testModel(t)
	if opts.Logger == nil {
		// Keep per-request access logs out of test output.
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	fl, err := fleet.Open(fleet.Options{Metrics: opts.Metrics, Logger: opts.Logger, Flight: opts.Flight})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	if err := fl.Add(testWorkload, m); err != nil {
		t.Fatal(err)
	}
	s, err := NewFleet(fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, m, series
}

func newTestServer(t *testing.T) (*httptest.Server, *core.Model, []float64) {
	t.Helper()
	ts, _, m, series := newTestServerOpts(t, Options{})
	return ts, m, series
}

// TestNewRejectsNilModel checks a server cannot be built around a missing
// model: the fleet refuses a nil model, and a server refuses a nil fleet or
// one that serves no model.
func TestNewRejectsNilModel(t *testing.T) {
	fl, err := fleet.Open(fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if err := fl.Add(testWorkload, nil); err == nil {
		t.Fatal("expected error for nil model")
	}
	if _, err := NewFleet(fl, Options{}); err == nil {
		t.Fatal("expected error for a fleet with no model")
	}
	if _, err := NewFleet(nil, Options{}); err == nil {
		t.Fatal("expected error for nil fleet")
	}
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
	// Wrong method.
	resp2, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d", resp2.StatusCode)
	}
}

func TestModelEndpoint(t *testing.T) {
	ts, m, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/workloads/" + testWorkload + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Hyperparams.HistoryLen != m.HP.HistoryLen || info.NumWeights != m.NumParams() {
		t.Fatalf("info = %+v", info)
	}
}

func postForecast(t *testing.T, url string, req ForecastRequest) (*http.Response, ForecastResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+forecastPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out ForecastResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestForecastMatchesModel(t *testing.T) {
	ts, m, series := newTestServer(t)
	resp, out := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Degraded {
		t.Fatal("healthy model reported degraded")
	}
	want, err := m.PredictSteps(series, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Forecasts) != 3 {
		t.Fatalf("got %d forecasts", len(out.Forecasts))
	}
	for i := range want {
		if math.Abs(out.Forecasts[i]-want[i]) > 1e-9 {
			t.Fatalf("forecast %d: %v vs %v", i, out.Forecasts[i], want[i])
		}
	}
}

func TestForecastDefaultsToOneStep(t *testing.T) {
	ts, _, series := newTestServer(t)
	resp, out := postForecast(t, ts.URL, ForecastRequest{History: series})
	if resp.StatusCode != http.StatusOK || len(out.Forecasts) != 1 {
		t.Fatalf("status %d forecasts %d", resp.StatusCode, len(out.Forecasts))
	}
}

func TestForecastValidation(t *testing.T) {
	ts, _, series := newTestServer(t)
	neg := append([]float64(nil), series...)
	neg[40] = -17
	cases := []struct {
		name string
		req  ForecastRequest
		want int
	}{
		{"empty history", ForecastRequest{Steps: 1}, http.StatusBadRequest},
		{"short history", ForecastRequest{History: series[:3]}, http.StatusBadRequest},
		{"negative steps", ForecastRequest{History: series, Steps: -1}, http.StatusBadRequest},
		{"too many steps", ForecastRequest{History: series, Steps: MaxSteps + 1}, http.StatusBadRequest},
		{"negative history value", ForecastRequest{History: neg}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postForecast(t, ts.URL, c.req)
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Raw bodies the typed round-trip cannot produce: garbage JSON and
	// non-finite history literals (JSON cannot represent NaN/Inf, so these
	// must die in decoding with a 400, never reach the model).
	for _, raw := range []string{"{", `{"history":[1,2,NaN],"steps":1}`, `{"history":[1,2,1e999],"steps":1}`} {
		resp, err := http.Post(ts.URL+forecastPath, "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("raw body %q: status %d, want 400", raw, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + forecastPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET %s: status %d", forecastPath, resp.StatusCode)
	}
}

func TestForecastDegradedFallbackOnNonFiniteOutput(t *testing.T) {
	ts, s, _, series := newTestServerOpts(t, Options{})
	s.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		out := make([]float64, steps)
		for i := range out {
			out[i] = math.NaN()
		}
		return out, nil
	}
	resp, out := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded response status %d, want 200", resp.StatusCode)
	}
	if !out.Degraded || out.Fallback != "last-value" || out.Reason == "" {
		t.Fatalf("response = %+v, want degraded last-value fallback", out)
	}
	last := series[len(series)-1]
	if len(out.Forecasts) != 4 {
		t.Fatalf("got %d forecasts, want 4", len(out.Forecasts))
	}
	for i, v := range out.Forecasts {
		if v != last {
			t.Fatalf("fallback forecast %d = %v, want last value %v", i, v, last)
		}
	}
}

func TestForecastModelErrorIs502(t *testing.T) {
	ts, s, _, series := newTestServerOpts(t, Options{})
	s.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		return nil, fmt.Errorf("synthetic model failure")
	}
	resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
}

func TestForecastTimeoutIs504(t *testing.T) {
	ts, s, _, series := newTestServerOpts(t, Options{RequestTimeout: 20 * time.Millisecond})
	s.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestForecastSheddingAtCapacity(t *testing.T) {
	ts, s, _, series := newTestServerOpts(t, Options{MaxInFlight: 1})
	inside := make(chan struct{})
	release := make(chan struct{})
	var first sync.Once
	s.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		// Only the first request blocks holding the slot; later requests
		// (issued after release) return immediately.
		first.Do(func() {
			close(inside)
			<-release
		})
		return []float64{1}, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupant status %d", resp.StatusCode)
		}
	}()
	<-inside // the single slot is now held
	resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	close(release)
	wg.Wait()
	// Capacity is released: the next request succeeds.
	resp2, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-shed status %d, want 200", resp2.StatusCode)
	}
}

func TestPanicRecoveryReturnsJSON500(t *testing.T) {
	ts, s, _, series := newTestServerOpts(t, Options{})
	s.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		panic("synthetic handler panic")
	}
	resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
}

// reloadFixture returns the test server plus a differently-shaped second
// model saved to the path reloadFromFile reads.
func reloadFixture(t *testing.T) (*httptest.Server, *Server, *core.Model, *core.Model, string, []float64) {
	t.Helper()
	ts, s, m, series := newTestServerOpts(t, Options{})
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 10
	tc.Patience = 2
	m2, err := core.TrainSingle(core.Config{Seed: 2, Train: tc},
		series[:200], series[200:], core.Hyperparams{HistoryLen: 10, CellSize: 4, Layers: 1, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return ts, s, m, m2, path, series
}

// reloadFromFile hot-reloads the test workload the way loadserve does on
// SIGHUP: load the file, then promote it through the fleet.
func reloadFromFile(s *Server, path string) error {
	m, err := core.LoadFile(path)
	if err != nil {
		return err
	}
	return s.Fleet().Promote(testWorkload, m)
}

func TestReloadSwapsModelAtomically(t *testing.T) {
	ts, s, _, m2, path, _ := reloadFixture(t)
	if err := reloadFromFile(s, path); err != nil {
		t.Fatal(err)
	}
	infoResp, err := http.Get(ts.URL + "/v1/workloads/" + testWorkload + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer infoResp.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(infoResp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Hyperparams.HistoryLen != m2.HP.HistoryLen {
		t.Fatalf("served model history len %d, want reloaded %d", info.Hyperparams.HistoryLen, m2.HP.HistoryLen)
	}
}

func TestReloadKeepsOldModelOnCorruptFile(t *testing.T) {
	ts, s, m, _, path, series := reloadFixture(t)
	_, before, err := s.Fleet().ModelWithVersion(testWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"garbage":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reloadFromFile(s, path); err == nil {
		t.Fatal("reload of corrupt file succeeded")
	}
	if _, after, err := s.Fleet().ModelWithVersion(testWorkload); err != nil || after != before {
		t.Fatalf("version after failed reload = %d (err %v), want %d", after, err, before)
	}
	// The old model must keep serving.
	fResp, out := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
	if fResp.StatusCode != http.StatusOK || len(out.Forecasts) != 1 {
		t.Fatalf("old model not serving after failed reload: status %d", fResp.StatusCode)
	}
	want, err := m.PredictSteps(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Forecasts[0]-want[0]) > 1e-9 {
		t.Fatalf("forecast %v, want old model's %v", out.Forecasts[0], want[0])
	}
}

// TestConcurrentForecastAndReload hammers forecasts while hot-reloading a
// differently-shaped model from disk through the fleet — run under -race it
// proves the atomic swap never tears a request.
func TestConcurrentForecastAndReload(t *testing.T) {
	ts, s, _, _, path, series := reloadFixture(t)
	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, out := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 2})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("forecast status %d", resp.StatusCode)
					return
				}
				for _, v := range out.Forecasts {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("torn forecast: %v", out.Forecasts)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			if err := reloadFromFile(s, path); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestRetryAfterScalesWithShedPressure(t *testing.T) {
	_, s, _, _ := newTestServerOpts(t, Options{MaxInFlight: 1, RetryAfterBase: 2 * time.Second, RetryAfterMax: 7 * time.Second})

	// Pure scaling: streak x base, clamped to [base, max], whole seconds.
	cases := []struct {
		streak int64
		want   string
	}{{1, "2"}, {2, "4"}, {3, "6"}, {4, "7"}, {100, "7"}}
	for _, c := range cases {
		if got := s.retryAfter(c.streak); got != c.want {
			t.Errorf("retryAfter(%d) = %s, want %s", c.streak, got, c.want)
		}
	}

	// End-to-end: hold the single slot, then shed repeatedly — the
	// advertised delay climbs with the consecutive-shed streak.
	s.inflight <- struct{}{}
	for i, want := range []string{"2", "4", "6", "7", "7"} {
		rec := httptest.NewRecorder()
		if s.acquireSlot(rec) {
			t.Fatalf("shed %d: acquired a slot with the server full", i)
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("shed %d: status %d, want 503", i, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != want {
			t.Fatalf("shed %d: Retry-After %q, want %q", i, got, want)
		}
	}
	<-s.inflight

	// A successful acquisition resets the streak: the next shed is back
	// at the base hint.
	if !s.acquireSlot(httptest.NewRecorder()) {
		t.Fatal("acquireSlot failed with a free slot")
	}
	// The slot just acquired is still held, so the next request sheds —
	// but with the streak reset it re-advertises the base hint.
	rec := httptest.NewRecorder()
	if s.acquireSlot(rec) {
		t.Fatal("acquired a slot with the server full")
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("post-reset Retry-After %q, want base \"2\"", got)
	}
}

func TestRetryAfterDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.RetryAfterBase != time.Second || o.RetryAfterMax != 30*time.Second {
		t.Fatalf("defaults = (%v, %v), want (1s, 30s)", o.RetryAfterBase, o.RetryAfterMax)
	}
	// An inverted pair is normalized so the clamp stays well-formed.
	o = Options{RetryAfterBase: 10 * time.Second, RetryAfterMax: 2 * time.Second}.withDefaults()
	if o.RetryAfterMax != 10*time.Second {
		t.Fatalf("normalized max = %v, want 10s", o.RetryAfterMax)
	}
	// Sub-second bases still advertise at least one whole second.
	s := &Server{opts: Options{RetryAfterBase: 100 * time.Millisecond, RetryAfterMax: time.Second}.withDefaults()}
	if got := s.retryAfter(1); got != "1" {
		t.Fatalf("sub-second hint = %q, want \"1\"", got)
	}
}
