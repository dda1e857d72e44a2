package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/obs"
	"loaddynamics/internal/obs/expotest"
)

// forecastBody marshals a forecast request for raw http.Post calls.
func forecastBody(t *testing.T, history []float64, steps int) []byte {
	t.Helper()
	body, err := json.Marshal(ForecastRequest{History: history, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// adminGet issues a GET against the admin handler and returns the recorder.
func adminGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestAdminPrometheusExposition(t *testing.T) {
	reg := obs.NewRegistry()
	ts, s, m, series := newTestServerOpts(t, Options{Metrics: reg})
	// Generate some real traffic so the exposition carries live series.
	body := forecastBody(t, series[:m.HP.HistoryLen], 3)
	resp, err := http.Post(ts.URL+forecastPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	admin := s.Admin(false)
	for _, path := range []string{"/metrics", "/debug/metrics?format=prometheus"} {
		rec := adminGet(t, admin, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("GET %s: content type %q", path, ct)
		}
		// The same strict parser the renderer's own tests use must accept
		// a live scrape.
		values, hists := expotest.Verify(t, rec.Body.String())
		if got := values["serve_requests_workload_forecast_total"]; got != 1 {
			t.Errorf("GET %s: forecast request counter = %v, want 1", path, got)
		}
		if h := hists["serve_latency_seconds_workload_forecast"]; h == nil || h.Count != 1 {
			t.Errorf("GET %s: latency histogram missing or empty", path)
		}
	}
	// The JSON snapshot stays the default format.
	rec := adminGet(t, s.Admin(false), "/debug/metrics")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET /debug/metrics: content type %q, want JSON", ct)
	}
}

func TestRequestIDCorrelatesLogAndTrace(t *testing.T) {
	var logBuf syncBuffer
	trace := obs.NewTrace()
	lg := slog.New(slog.NewJSONHandler(&logBuf, nil))
	ts, _, m, series := newTestServerOpts(t, Options{
		Metrics: obs.NewRegistry(), Logger: lg, Trace: trace,
	})
	body := forecastBody(t, series[:m.HP.HistoryLen], 1)
	resp, err := http.Post(ts.URL+forecastPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(reqID) {
		t.Fatalf("response carries no valid X-Request-ID: %q", reqID)
	}

	// The ID from the response header must appear in the slog JSON line...
	var logged map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["request_id"] == reqID {
			logged = rec
			break
		}
	}
	if logged == nil {
		t.Fatalf("request ID %q not found in logs:\n%s", reqID, logBuf.String())
	}
	for key, want := range map[string]any{
		"component": "serve", "route": "workload_forecast", "status": 200.0, "msg": "request",
	} {
		if logged[key] != want {
			t.Errorf("log[%q] = %v, want %v", key, logged[key], want)
		}
	}
	if logged["workload"] != testWorkload {
		t.Errorf("log workload = %v, want %q", logged["workload"], testWorkload)
	}
	if _, ok := logged["duration_ms"].(float64); !ok {
		t.Errorf("log duration_ms = %v, want a number", logged["duration_ms"])
	}

	// ...and on the exported serve.request span.
	var span *obs.SpanRecord
	for _, rec := range trace.Named("serve.request") {
		if rec.Attr("request_id") == reqID {
			r := rec
			span = &r
			break
		}
	}
	if span == nil {
		t.Fatalf("request ID %q not found on any serve.request span", reqID)
	}
	if got := span.Attr("route"); got != "workload_forecast" {
		t.Errorf("span route = %v, want workload_forecast", got)
	}
	if got := span.Attr("status"); got != 200 && got != 200.0 {
		t.Errorf("span status = %v, want 200", got)
	}
}

func TestRequestIDSuppliedByCaller(t *testing.T) {
	ts, _, _, _ := newTestServerOpts(t, Options{Metrics: obs.NewRegistry()})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied.id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied.id-1" {
		t.Errorf("well-formed caller ID not echoed: got %q", got)
	}

	// A hostile ID (log-injection shaped) is replaced, not echoed.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", `bad"id with spaces`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == `bad"id with spaces` || !obs.ValidRequestID(got) {
		t.Errorf("hostile caller ID echoed or replacement invalid: %q", got)
	}
}

func TestErrorCounterFeedsRouteSLO(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _, _, series := newTestServerOpts(t, Options{Metrics: reg})
	// A forecast against an unknown workload is the caller's mistake: 404,
	// not a 5xx, so it must not burn the availability SLO.
	body := forecastBody(t, series[:50], 1)
	resp, err := http.Post(ts.URL+"/v1/workloads/nope/forecast", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d", resp.StatusCode)
	}
	if got := reg.Counter("serve.errors.workload_forecast").Value(); got != 0 {
		t.Errorf("4xx incremented the 5xx error counter: %d", got)
	}
}

func TestHealthEndpointFollowsBurnRate(t *testing.T) {
	reg := obs.NewRegistry()
	_, s, _, _ := newTestServerOpts(t, Options{Metrics: reg})
	admin := s.Admin(false)
	now := time.Unix(1_700_000_000, 0)

	// Clean baseline: two samples of zero traffic → healthy.
	s.SLO().Sample(now)
	now = now.Add(time.Minute)
	s.SLO().Sample(now)
	if rec := adminGet(t, admin, "/debug/health"); rec.Code != http.StatusOK {
		t.Fatalf("clean engine: health status %d: %s", rec.Code, rec.Body.String())
	}

	// Induce a fast burn: half of forecast traffic 5xx against a 1% budget.
	reg.Counter("serve.requests.workload_forecast").Add(100)
	reg.Counter("serve.errors.workload_forecast").Add(50)
	now = now.Add(time.Minute)
	s.SLO().Sample(now)
	rec := adminGet(t, admin, "/debug/health")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("under fast burn: health status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var failing struct {
		Status string   `json:"status"`
		Firing []string `json:"firing"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &failing); err != nil {
		t.Fatal(err)
	}
	if failing.Status != "failing" || len(failing.Firing) == 0 {
		t.Errorf("503 body: %+v", failing)
	}
	if f := failing.Firing[0]; f != "availability:workload_forecast" {
		t.Errorf("firing objective %q, want availability:workload_forecast", f)
	}

	// /debug/slo reports the same state machine-readably.
	rec = adminGet(t, admin, "/debug/slo")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slo status %d", rec.Code)
	}
	var slo obs.SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &slo); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range slo.Objectives {
		if o.Name == "availability:workload_forecast" {
			found = true
			if o.State != obs.BurnFast {
				t.Errorf("/debug/slo state %s, want fast_burn", o.State)
			}
		}
	}
	if !found {
		t.Error("/debug/slo is missing the forecast availability objective")
	}

	// Recovery: the burst ages out of the slow window and clean traffic
	// resumes → health returns to 200.
	now = now.Add(2 * time.Hour)
	reg.Counter("serve.requests.workload_forecast").Add(100)
	s.SLO().Sample(now)
	now = now.Add(time.Minute)
	reg.Counter("serve.requests.workload_forecast").Add(100)
	s.SLO().Sample(now)
	if rec := adminGet(t, admin, "/debug/health"); rec.Code != http.StatusOK {
		t.Fatalf("after recovery: health status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestServerSLOCoversDriftGauges(t *testing.T) {
	reg := obs.NewRegistry()
	_, s, _, _ := newTestServerOpts(t, Options{Metrics: reg})
	admin := s.Admin(false)
	now := time.Unix(1_700_000_000, 0)
	// A workload whose rolling MAPE sustains far above the drift objective
	// pages through the same burn-rate path as a latency regression.
	reg.Gauge("fleet.rolling_mape_pct." + testWorkload).Set(900)
	s.SLO().Sample(now)
	now = now.Add(time.Minute)
	s.SLO().Sample(now)
	rec := adminGet(t, admin, "/debug/health")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drifted workload: health status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "drift:"+testWorkload) {
		t.Errorf("503 body does not name the drift objective: %s", rec.Body.String())
	}
}

func TestStartTelemetryPopulatesRuntimeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, s, _, _ := newTestServerOpts(t, Options{Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.StartTelemetry(ctx, 5*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("runtime.goroutines").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runtime collector never sampled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler writes
// from request goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
