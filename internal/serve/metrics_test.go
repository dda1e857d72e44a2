package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/obs"
)

// counterValue reads a counter without creating it when absent.
func counterValue(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

func TestServeMetricsRequestCountersAndLatency(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _, _, series := newTestServerOpts(t, Options{Metrics: reg})

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d", resp.StatusCode)
	}
	// A validation failure must still be counted against the route.
	badResp, _ := postForecast(t, ts.URL, ForecastRequest{Steps: 1})
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad forecast status %d", badResp.StatusCode)
	}
	// An unknown path lands in the shared "other" bucket.
	otherResp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	otherResp.Body.Close()

	if got := counterValue(reg, "serve.requests.healthz"); got != 3 {
		t.Fatalf("healthz requests = %d, want 3", got)
	}
	if got := counterValue(reg, "serve.requests.workload_forecast"); got != 2 {
		t.Fatalf("forecast requests = %d, want 2", got)
	}
	if got := counterValue(reg, "serve.requests.other"); got != 1 {
		t.Fatalf("other requests = %d, want 1", got)
	}
	if got := counterValue(reg, "serve.status.200"); got != 4 {
		t.Fatalf("status 200 = %d, want 4 (3 healthz + 1 forecast)", got)
	}
	if got := counterValue(reg, "serve.status.400"); got != 1 {
		t.Fatalf("status 400 = %d, want 1", got)
	}

	hs := reg.Histogram("serve.latency_seconds.workload_forecast").Snapshot()
	if hs.Count != 2 {
		t.Fatalf("forecast latency observations = %d, want 2", hs.Count)
	}
	if hs.Min < 0 || hs.Max <= 0 || hs.P99 < hs.P50 {
		t.Fatalf("implausible latency snapshot %+v", hs)
	}
	if g := reg.Gauge("serve.inflight").Value(); g != 0 {
		t.Fatalf("inflight gauge = %d after requests drained, want 0", g)
	}
}

func TestServeMetricsErrorPathCounters(t *testing.T) {
	// 504: predict blocks until the per-request deadline fires.
	reg := obs.NewRegistry()
	ts, s, _, series := newTestServerOpts(t, Options{RequestTimeout: 20 * time.Millisecond, Metrics: reg})
	s.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := counterValue(reg, "serve.status.504"); got != 1 {
		t.Fatalf("status 504 = %d, want 1", got)
	}

	// 503: second request sheds while the single slot is held.
	reg2 := obs.NewRegistry()
	ts2, s2, _, _ := newTestServerOpts(t, Options{MaxInFlight: 1, Metrics: reg2})
	inside := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s2.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		once.Do(func() {
			close(inside)
			<-release
		})
		return []float64{1}, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postForecast(t, ts2.URL, ForecastRequest{History: series, Steps: 1})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupant status %d", resp.StatusCode)
		}
	}()
	<-inside
	if g := reg2.Gauge("serve.inflight").Value(); g != 1 {
		t.Errorf("inflight gauge = %d while a forecast is held, want 1", g)
	}
	shedResp, _ := postForecast(t, ts2.URL, ForecastRequest{History: series, Steps: 1})
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", shedResp.StatusCode)
	}
	close(release)
	wg.Wait()
	if got := counterValue(reg2, "serve.status.503"); got != 1 {
		t.Fatalf("status 503 = %d, want 1", got)
	}
	if g := reg2.Gauge("serve.inflight").Value(); g != 0 {
		t.Fatalf("inflight gauge = %d after drain, want 0", g)
	}

	// 502 + degraded fallback + panic 500 on fresh registries.
	reg3 := obs.NewRegistry()
	ts3, s3, _, _ := newTestServerOpts(t, Options{Metrics: reg3})
	s3.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		return nil, fmt.Errorf("synthetic model failure")
	}
	if resp, _ := postForecast(t, ts3.URL, ForecastRequest{History: series, Steps: 1}); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	s3.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		return []float64{math.NaN()}, nil
	}
	if resp, out := postForecast(t, ts3.URL, ForecastRequest{History: series, Steps: 1}); resp.StatusCode != http.StatusOK || !out.Degraded {
		t.Fatalf("degraded response: status %d degraded %v", resp.StatusCode, out.Degraded)
	}
	s3.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		panic("synthetic handler panic")
	}
	if resp, _ := postForecast(t, ts3.URL, ForecastRequest{History: series, Steps: 1}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := counterValue(reg3, "serve.status.502"); got != 1 {
		t.Fatalf("status 502 = %d, want 1", got)
	}
	if got := counterValue(reg3, "serve.status.500"); got != 1 {
		t.Fatalf("status 500 = %d, want 1", got)
	}
	if got := counterValue(reg3, "serve.degraded"); got != 1 {
		t.Fatalf("degraded = %d, want 1", got)
	}
	if hs := reg3.Histogram("serve.latency_seconds.workload_forecast").Snapshot(); hs.Count != 3 {
		t.Fatalf("forecast latency observations = %d, want 3 (502 + degraded + panic)", hs.Count)
	}
}

func TestAdminMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	ts, s, _, series := newTestServerOpts(t, Options{Metrics: reg})
	if resp, _ := postForecast(t, ts.URL, ForecastRequest{History: series, Steps: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d", resp.StatusCode)
	}

	admin := httptest.NewServer(s.Admin(true))
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.requests.workload_forecast"] != 1 {
		t.Fatalf("snapshot forecast requests = %d, want 1", snap.Counters["serve.requests.workload_forecast"])
	}
	lat, ok := snap.Histograms["serve.latency_seconds.workload_forecast"]
	if !ok {
		t.Fatalf("snapshot missing forecast latency histogram: %v", snap.Histograms)
	}
	if lat.Count != 1 || lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Fatalf("implausible latency quantiles %+v", lat)
	}

	// POST is rejected.
	post, err := http.Post(admin.URL+"/debug/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/metrics status %d, want 405", post.StatusCode)
	}

	// pprof is mounted when enabled...
	pprofResp, err := http.Get(admin.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pprofResp.Body.Close()
	if pprofResp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d, want 200", pprofResp.StatusCode)
	}

	// ...and absent when not.
	bare := httptest.NewServer(s.Admin(false))
	defer bare.Close()
	off, err := http.Get(bare.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	off.Body.Close()
	if off.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without pprof: status %d, want 404", off.StatusCode)
	}
}
