package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/obs"
)

func postBatch(t *testing.T, url string, req BatchForecastRequest) (*http.Response, BatchForecastResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/forecast:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out BatchForecastResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestBatchMatchesSingleForecasts is the golden parity check: every result
// row of /v1/forecast:batch must be bit-identical to the same (history,
// steps) posted to the single endpoint, so clients can mix both freely.
func TestBatchMatchesSingleForecasts(t *testing.T) {
	ts, _, _, series := newTestServerOpts(t, Options{})
	entries := []BatchForecastEntry{
		{Workload: "default", History: series[:50], Steps: 1},
		{Workload: "default", History: series[10:90], Steps: 4},
		{Workload: "default", History: series, Steps: 7},
		{Workload: "default", History: series[:13], Steps: 2},
	}
	resp, out := postBatch(t, ts.URL, BatchForecastRequest{Entries: entries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(out.Results) != len(entries) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(entries))
	}
	for i, e := range entries {
		r := out.Results[i]
		if r.Error != "" {
			t.Fatalf("entry %d errored: %s", i, r.Error)
		}
		sresp, single := postForecast(t, ts.URL, ForecastRequest{History: e.History, Steps: e.Steps})
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("single status %d for entry %d", sresp.StatusCode, i)
		}
		if len(r.Forecasts) != len(single.Forecasts) {
			t.Fatalf("entry %d: %d forecasts vs %d single", i, len(r.Forecasts), len(single.Forecasts))
		}
		for k := range r.Forecasts {
			if math.Float64bits(r.Forecasts[k]) != math.Float64bits(single.Forecasts[k]) {
				t.Fatalf("entry %d step %d: batch %v != single %v (not bit-identical)",
					i, k, r.Forecasts[k], single.Forecasts[k])
			}
		}
	}
}

// TestBatchPerEntryErrors checks that invalid entries fail individually with
// the single endpoint's wording while valid neighbors still get forecasts.
func TestBatchPerEntryErrors(t *testing.T) {
	ts, _, m, series := newTestServerOpts(t, Options{})
	entries := []BatchForecastEntry{
		{Workload: "default", History: series[:40], Steps: 2},
		{Workload: "default", History: series[:40], Steps: -1},
		{Workload: "default", History: nil, Steps: 1},
		{Workload: "default", History: series[:m.HP.HistoryLen-1], Steps: 1},
		{Workload: "nope", History: series[:40], Steps: 1},
		{Workload: "bad id!", History: series[:40], Steps: 1},
	}
	resp, out := postBatch(t, ts.URL, BatchForecastRequest{Entries: entries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with bad entries should still answer 200, got %d", resp.StatusCode)
	}
	if out.Results[0].Error != "" || len(out.Results[0].Forecasts) != 2 {
		t.Fatalf("valid entry failed: %+v", out.Results[0])
	}
	wantErr := []struct {
		idx int
		sub string
	}{
		{1, fmt.Sprintf("steps must be 1..%d", MaxSteps)},
		{2, "history is required"},
		{3, fmt.Sprintf("model needs at least %d", m.HP.HistoryLen)},
		{4, "unknown workload"},
		{5, "workload id"},
	}
	for _, w := range wantErr {
		r := out.Results[w.idx]
		if r.Error == "" || len(r.Forecasts) != 0 {
			t.Fatalf("entry %d should have errored, got %+v", w.idx, r)
		}
		if !strings.Contains(r.Error, w.sub) {
			t.Fatalf("entry %d error %q does not mention %q", w.idx, r.Error, w.sub)
		}
	}
}

// TestBatchPooledRequestNoCarryOver guards against cross-request data
// leakage through the request pool: encoding/json reuses slice elements
// within capacity without zeroing them, so a pooled BatchForecastRequest
// that is not reset up to cap would let an entry omitting "steps",
// "history", or "workload" inherit a prior request's values.
func TestBatchPooledRequestNoCarryOver(t *testing.T) {
	// Deterministic core: decode into a dirty pooled struct after reset.
	req := &BatchForecastRequest{Entries: []BatchForecastEntry{
		{Workload: "victim", History: []float64{1, 2, 3}, Steps: 7},
		{Workload: "victim2", History: []float64{4, 5, 6}, Steps: 9},
	}}
	req.resetForDecode()
	payload := []byte(`{"entries":[{"workload":"a"},{"history":[8]}]}`)
	if err := json.Unmarshal(payload, req); err != nil {
		t.Fatal(err)
	}
	if len(req.Entries) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(req.Entries))
	}
	if e := req.Entries[0]; e.Workload != "a" || len(e.History) != 0 || e.Steps != 0 {
		t.Fatalf("entry 0 inherited stale fields: %+v", e)
	}
	if e := req.Entries[1]; e.Workload != "" || e.Steps != 0 || len(e.History) != 1 || e.History[0] != 8 {
		t.Fatalf("entry 1 inherited stale fields: %+v", e)
	}

	// End-to-end: poison the pool with a previous client's request, then
	// post an entry that omits steps. If the handler failed to reset the
	// pooled struct it would serve 7 forecast steps instead of 1.
	ts, _, _, series := newTestServerOpts(t, Options{})
	batchReqPool.Put(&BatchForecastRequest{Entries: []BatchForecastEntry{
		{Workload: "default", History: append([]float64(nil), series[:40]...), Steps: 7},
	}})
	resp, out := postBatch(t, ts.URL, BatchForecastRequest{Entries: []BatchForecastEntry{
		{Workload: "default", History: series[:40]},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if r := out.Results[0]; r.Error != "" || len(r.Forecasts) != 1 {
		t.Fatalf("entry omitting steps got %d forecasts (want 1): %+v", len(r.Forecasts), r)
	}
}

// TestBatchTimeoutIsPerEntry checks that a DeadlineExceeded from one model
// group does not fail the whole batch: cache hits and other groups' results
// are kept, and the timed-out entries carry a per-entry error, matching the
// documented partial-results contract.
func TestBatchTimeoutIsPerEntry(t *testing.T) {
	ts, srv, _, series := newTestServerOpts(t, Options{ForecastCacheTTL: time.Minute})
	// Warm the cache for one window through the single endpoint.
	warm := ForecastRequest{History: series[:40], Steps: 2}
	if resp, _ := postForecast(t, ts.URL, warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	// Every subsequent model pass times out.
	srv.predictBatch = func(ctx context.Context, _ *core.Model, _ [][]float64, _ []int) ([][]float64, error) {
		return nil, context.DeadlineExceeded
	}
	resp, out := postBatch(t, ts.URL, BatchForecastRequest{Entries: []BatchForecastEntry{
		{Workload: "default", History: series[:40], Steps: 2},   // cache hit
		{Workload: "default", History: series[10:90], Steps: 1}, // miss → timeout
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with a timed-out group should still answer 200, got %d", resp.StatusCode)
	}
	if r := out.Results[0]; r.Error != "" || len(r.Forecasts) != 2 {
		t.Fatalf("cached entry was discarded: %+v", r)
	}
	if r := out.Results[1]; r.Error != "forecast timed out" || len(r.Forecasts) != 0 {
		t.Fatalf("timed-out entry = %+v, want per-entry 'forecast timed out'", r)
	}
}

func TestBatchFraming(t *testing.T) {
	ts, _, _, series := newTestServerOpts(t, Options{MaxBatch: 2})
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/forecast:batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	// Invalid JSON.
	resp, err = http.Post(ts.URL+"/v1/forecast:batch", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON status %d", resp.StatusCode)
	}
	// Empty batch.
	resp, _ = postBatch(t, ts.URL, BatchForecastRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	// Over MaxBatch.
	e := BatchForecastEntry{Workload: "default", History: series[:40], Steps: 1}
	resp, _ = postBatch(t, ts.URL, BatchForecastRequest{Entries: []BatchForecastEntry{e, e, e}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
}

// TestForecastCacheHitsAndInvalidation drives the cache end to end through
// the HTTP surface: a repeated request hits without recomputing, the batch
// endpoint shares the same entries, and a promotion both invalidates and —
// via the version key — makes serving the old model's forecasts impossible.
func TestForecastCacheHitsAndInvalidation(t *testing.T) {
	ts, srv, m, series := newTestServerOpts(t, Options{ForecastCacheTTL: time.Minute})
	var computes atomic.Int64
	var marks sync.Map // *core.Model → forecast value
	marks.Store(m, 1.0)
	markOf := func(mm *core.Model) float64 {
		v, ok := marks.Load(mm)
		if !ok {
			t.Error("predict called with unknown model")
			return -1
		}
		return v.(float64)
	}
	srv.predict = func(_ context.Context, mm *core.Model, _ []float64, steps int) ([]float64, error) {
		computes.Add(1)
		out := make([]float64, steps)
		for i := range out {
			out[i] = markOf(mm)
		}
		return out, nil
	}
	srv.predictBatch = func(_ context.Context, mm *core.Model, histories [][]float64, steps []int) ([][]float64, error) {
		out := make([][]float64, len(histories))
		for i := range histories {
			computes.Add(1)
			out[i] = make([]float64, steps[i])
			for k := range out[i] {
				out[i][k] = markOf(mm)
			}
		}
		return out, nil
	}

	req := ForecastRequest{History: series[:40], Steps: 3}
	resp1, out1 := postForecast(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Forecast-Cache") != "miss" {
		t.Fatalf("first request: status %d cache %q", resp1.StatusCode, resp1.Header.Get("X-Forecast-Cache"))
	}
	resp2, out2 := postForecast(t, ts.URL, req)
	if resp2.Header.Get("X-Forecast-Cache") != "hit" {
		t.Fatalf("second request cache header %q, want hit", resp2.Header.Get("X-Forecast-Cache"))
	}
	if computes.Load() != 1 {
		t.Fatalf("computes = %d after identical requests, want 1", computes.Load())
	}
	for i := range out1.Forecasts {
		if math.Float64bits(out1.Forecasts[i]) != math.Float64bits(out2.Forecasts[i]) {
			t.Fatalf("cached forecast differs at %d: %v vs %v", i, out1.Forecasts[i], out2.Forecasts[i])
		}
	}
	// A longer history with the same trailing window still hits: the key is
	// the model's input window, not the raw payload.
	respLong, _ := postForecast(t, ts.URL, ForecastRequest{History: append(append([]float64(nil), 9999), series[:40]...), Steps: 3})
	if respLong.Header.Get("X-Forecast-Cache") != "hit" {
		t.Fatalf("same-window request cache header %q, want hit", respLong.Header.Get("X-Forecast-Cache"))
	}
	// The batch endpoint reads the same cache.
	_, bout := postBatch(t, ts.URL, BatchForecastRequest{Entries: []BatchForecastEntry{
		{Workload: "default", History: series[:40], Steps: 3},
	}})
	if bout.Results[0].Error != "" || bout.Results[0].Forecasts[0] != 1.0 {
		t.Fatalf("batch cache read: %+v", bout.Results[0])
	}
	if computes.Load() != 1 {
		t.Fatalf("computes = %d after batch hit, want 1", computes.Load())
	}

	// Promote a new model: the cached forecasts for the old version must
	// never be served again.
	m2 := &core.Model{HP: m.HP, ValError: m.ValError}
	marks.Store(m2, 2.0)
	if err := srv.Fleet().Promote("default", m2); err != nil {
		t.Fatal(err)
	}
	resp4, out4 := postForecast(t, ts.URL, req)
	if resp4.Header.Get("X-Forecast-Cache") != "miss" {
		t.Fatalf("post-promotion cache header %q, want miss", resp4.Header.Get("X-Forecast-Cache"))
	}
	if out4.Forecasts[0] != 2.0 {
		t.Fatalf("post-promotion forecast %v came from the old model", out4.Forecasts[0])
	}
	if computes.Load() != 2 {
		t.Fatalf("computes = %d after promotion, want 2", computes.Load())
	}
}

// TestCachedHorizonIsContinued runs the real model with the cache on: a
// 12-step forecast on the window a 4-step single forecast just cached runs
// the model only for the 8 steps past it, from window ++ those 4 values,
// through forecast:batch and the single endpoint alike, and both serve
// bytes identical to an uncached 12-step forecast. A later 4-step single is
// then a prefix hit of the 12-step entry.
func TestCachedHorizonIsContinued(t *testing.T) {
	reg := obs.NewRegistry()
	ts, srv, m, series := newTestServerOpts(t, Options{ForecastCacheTTL: time.Minute, Metrics: reg})
	var mu sync.Mutex
	var seen [][2]int // (history length, steps) of every model call
	note := func(history []float64, steps int) {
		mu.Lock()
		seen = append(seen, [2]int{len(history), steps})
		mu.Unlock()
	}
	calls := func() [][2]int {
		mu.Lock()
		defer mu.Unlock()
		return append([][2]int(nil), seen...)
	}
	predict, predictBatch := srv.predict, srv.predictBatch
	srv.predict = func(ctx context.Context, mm *core.Model, history []float64, steps int) ([]float64, error) {
		note(history, steps)
		return predict(ctx, mm, history, steps)
	}
	srv.predictBatch = func(ctx context.Context, mm *core.Model, histories [][]float64, steps []int) ([][]float64, error) {
		for i := range histories {
			note(histories[i], steps[i])
		}
		return predictBatch(ctx, mm, histories, steps)
	}
	hl := m.HP.HistoryLen
	continued := [2]int{hl + 4, 8}

	for _, via := range []string{"forecast:batch", "forecast"} {
		history := series[:60]
		if via == "forecast" {
			history = series[100:160]
		}
		want, err := m.PredictSteps(history, 12)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		seen = nil
		mu.Unlock()
		resp, first := postForecast(t, ts.URL, ForecastRequest{History: history, Steps: 4})
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Forecast-Cache") != "miss" {
			t.Fatalf("%s: 4-step single: status %d cache %q", via, resp.StatusCode, resp.Header.Get("X-Forecast-Cache"))
		}
		assertSameBits(t, via+": 4-step single", first.Forecasts, want[:4])

		var got []float64
		if via == "forecast:batch" {
			_, bout := postBatch(t, ts.URL, BatchForecastRequest{Entries: []BatchForecastEntry{
				{Workload: testWorkload, History: history, Steps: 12},
			}})
			if bout.Results[0].Error != "" {
				t.Fatalf("batch entry error: %s", bout.Results[0].Error)
			}
			got = bout.Results[0].Forecasts
		} else {
			resp, out := postForecast(t, ts.URL, ForecastRequest{History: history, Steps: 12})
			if resp.Header.Get("X-Forecast-Cache") != "miss" {
				t.Fatalf("continued single cache header %q, want miss", resp.Header.Get("X-Forecast-Cache"))
			}
			got = out.Forecasts
		}
		assertSameBits(t, via+": continued 12-step", got, want)
		if c := calls(); len(c) != 2 || c[1] != continued {
			t.Fatalf("%s: model calls (history len, steps) = %v, want the continuation %v last", via, c, continued)
		}

		resp, again := postForecast(t, ts.URL, ForecastRequest{History: history, Steps: 4})
		if resp.Header.Get("X-Forecast-Cache") != "hit" {
			t.Fatalf("%s: 4-step single after 12 steps: cache %q, want hit", via, resp.Header.Get("X-Forecast-Cache"))
		}
		assertSameBits(t, via+": 4-step prefix hit", again.Forecasts, want[:4])
	}
	if x := reg.Counter("fleet.cache.extend").Value(); x != 2 {
		t.Fatalf("fleet.cache.extend = %d, want 2", x)
	}
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d forecasts, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s t+%d: %v, want %v", what, i+1, got[i], want[i])
		}
	}
}

// TestConcurrentBatchCachePromotion is the -race workout: single and batch
// forecasts race against promotions and observations with the cache enabled,
// and every response must reflect a model at least as new as the last
// promotion that completed before the request was issued — a stale cached
// forecast surfacing after a promotion fails the test.
func TestConcurrentBatchCachePromotion(t *testing.T) {
	discard := slog.New(slog.DiscardHandler)
	reg := obs.NewRegistry()
	fl, err := fleet.Open(fleet.Options{Metrics: reg, Logger: discard})
	if err != nil {
		t.Fatal(err)
	}
	hp := core.Hyperparams{HistoryLen: 4, CellSize: 2, Layers: 1, BatchSize: 8}
	var marks sync.Map // *core.Model → generation
	m1 := &core.Model{HP: hp, ValError: 1}
	other := &core.Model{HP: hp, ValError: 1}
	marks.Store(m1, 1.0)
	marks.Store(other, 1.0)
	if err := fl.Add("default", m1); err != nil {
		t.Fatal(err)
	}
	if err := fl.Add("other", other); err != nil {
		t.Fatal(err)
	}
	srv, err := NewFleet(fl, Options{Metrics: reg, Logger: discard, ForecastCacheTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	markOf := func(mm *core.Model) float64 {
		v, _ := marks.Load(mm)
		return v.(float64)
	}
	srv.predict = func(_ context.Context, mm *core.Model, _ []float64, steps int) ([]float64, error) {
		out := make([]float64, steps)
		for i := range out {
			out[i] = markOf(mm)
		}
		return out, nil
	}
	srv.predictBatch = func(_ context.Context, mm *core.Model, histories [][]float64, steps []int) ([][]float64, error) {
		out := make([][]float64, len(histories))
		for i := range histories {
			out[i] = make([]float64, steps[i])
			for k := range out[i] {
				out[i][k] = markOf(mm)
			}
		}
		return out, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	windows := [][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{2, 2, 2, 2},
	}
	var promoted atomic.Int64 // highest generation whose promotion has completed
	promoted.Store(1)
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // promoter
		defer wg.Done()
		defer close(done)
		for gen := 2; gen <= 25; gen++ {
			nm := &core.Model{HP: hp, ValError: 1}
			marks.Store(nm, float64(gen))
			if err := fl.Promote("default", nm); err != nil {
				t.Error(err)
				return
			}
			promoted.Store(int64(gen))
			time.Sleep(time.Millisecond)
		}
	}()

	checkFresh := func(got float64, lo int64, via string) {
		if got < float64(lo) {
			t.Errorf("%s served generation %v after generation %d was fully promoted (stale cache entry)", via, got, lo)
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) { // single-forecast clients
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				lo := promoted.Load()
				_, out := postForecast(t, ts.URL, ForecastRequest{History: windows[i%len(windows)], Steps: 2})
				if len(out.Forecasts) == 2 {
					checkFresh(out.Forecasts[0], lo, "single")
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) { // batch clients mixing both workloads
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				lo := promoted.Load()
				_, out := postBatch(t, ts.URL, BatchForecastRequest{Entries: []BatchForecastEntry{
					{Workload: "default", History: windows[i%len(windows)], Steps: 2},
					{Workload: "other", History: windows[(i+1)%len(windows)], Steps: 1},
					{Workload: "default", History: windows[(i+2)%len(windows)], Steps: 3},
				}})
				for k, r := range out.Results {
					if r.Error != "" || len(r.Forecasts) == 0 {
						continue
					}
					if r.Workload == "other" {
						if r.Forecasts[0] != 1.0 {
							t.Errorf("workload other got generation %v, was never promoted", r.Forecasts[0])
						}
						continue
					}
					checkFresh(r.Forecasts[0], lo, fmt.Sprintf("batch[%d]", k))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // observer exercising the evaluator against racing forecasts
		defer wg.Done()
		body := []byte(`{"values":[3,4,5]}`)
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v1/workloads/default/observe", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
}
