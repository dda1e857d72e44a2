package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/nn"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/wal"
	"loaddynamics/internal/wal/faultfs"
)

// fleetSeries is a small deterministic JAR series around level 100.
func fleetSeries(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/12) + rng.NormFloat64()
	}
	return out
}

// fleetModel trains a milliseconds-scale LSTM.
func fleetModel(t testing.TB, seed int64) *core.Model {
	t.Helper()
	series := fleetSeries(seed, 80)
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Patience = 0
	m, err := core.TrainSingle(core.Config{Seed: seed, Train: tc},
		series[:60], series[60:], core.Hyperparams{HistoryLen: 4, CellSize: 2, Layers: 1, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newFleetServer builds a 3-workload fleet server on a private registry.
func newFleetServer(t *testing.T, fopts fleet.Options, sopts Options) (*httptest.Server, *Server, *fleet.Fleet) {
	t.Helper()
	reg := obs.NewRegistry()
	fopts.Metrics = reg
	sopts.Metrics = reg
	fl, err := fleet.Open(fopts)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"gl-30m", "wiki-5m", "az-1h"} {
		if err := fl.Add(id, fleetModel(t, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewFleet(fl, sopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, fl
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet(nil, Options{}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	empty, _ := fleet.Open(fleet.Options{Metrics: obs.NewRegistry()})
	if _, err := NewFleet(empty, Options{Metrics: obs.NewRegistry()}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	fl, _ := fleet.Open(fleet.Options{Metrics: obs.NewRegistry()})
	if err := fl.Add("only", fleetModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet(fl, Options{Metrics: obs.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadRouting(t *testing.T) {
	ts, _, fl := newFleetServer(t, fleet.Options{}, Options{})

	// Per-workload forecast serves each workload's own model.
	hist := fleetSeries(9, 24)
	body, _ := json.Marshal(ForecastRequest{History: hist, Steps: 3})
	for _, id := range fl.IDs() {
		resp := postJSON(t, ts.URL+"/v1/workloads/"+id+"/forecast", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forecast %s status %d", id, resp.StatusCode)
		}
		out := decodeBody[ForecastResponse](t, resp)
		if len(out.Forecasts) != 3 {
			t.Fatalf("forecast %s returned %d steps", id, len(out.Forecasts))
		}
	}

	// The workload model endpoint includes fleet health.
	resp, err := http.Get(ts.URL + "/v1/workloads/gl-30m/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	info := decodeBody[WorkloadModelInfo](t, resp)
	if info.Workload.ID != "gl-30m" || !info.Workload.Resident || info.NumWeights == 0 {
		t.Fatalf("workload model info = %+v", info)
	}

	// The list endpoint reports every workload and nothing else: there is
	// no default workload.
	resp, err = http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	list := decodeBody[map[string]json.RawMessage](t, resp)
	var statuses []fleet.WorkloadStatus
	if err := json.Unmarshal(list["workloads"], &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 3 || len(list) != 2 { // "durability" and "workloads"
		t.Fatalf("workloads list = %s", list)
	}

	// Unknown workloads 404; invalid IDs 400.
	if resp := postJSON(t, ts.URL+"/v1/workloads/nope/forecast", string(body)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload forecast status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/workloads/.bad/observe", `{"values":[1]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid workload observe status %d", resp.StatusCode)
	}
}

func TestObserveEndpointValidation(t *testing.T) {
	ts, _, _ := newFleetServer(t, fleet.Options{}, Options{MaxObservations: 4, MaxBodyBytes: 256})
	url := ts.URL + "/v1/workloads/gl-30m/observe"

	if resp, err := http.Get(url); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET observe status %d", resp.StatusCode)
	}
	for body, want := range map[string]int{
		`{"values":[1,2,3]}`:     http.StatusOK,
		`{"values":[]}`:          http.StatusBadRequest,
		`{}`:                     http.StatusBadRequest,
		`{"values":[1,2,3,4,5]}`: http.StatusBadRequest, // over MaxObservations
		`{"values":[1,-2]}`:      http.StatusBadRequest,
		`{"values":["x"]}`:       http.StatusBadRequest,
		`not json`:               http.StatusBadRequest,
		`{"values":[` + strings.Repeat("1,", 200) + `1]}`: http.StatusBadRequest, // over MaxBodyBytes
	} {
		resp := postJSON(t, url, body)
		if resp.StatusCode != want {
			t.Errorf("observe %q status %d, want %d", body, resp.StatusCode, want)
		}
		var decoded map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Errorf("observe %q: non-JSON response: %v", body, err)
		}
	}
}

func TestForecastHistoryCapConfigurable(t *testing.T) {
	ts, _, _ := newFleetServer(t, fleet.Options{}, Options{MaxHistory: 16})
	body, _ := json.Marshal(ForecastRequest{History: fleetSeries(1, 17), Steps: 1})
	resp := postJSON(t, ts.URL+"/v1/workloads/gl-30m/forecast", string(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized history status %d, want 400", resp.StatusCode)
	}
	e := decodeBody[map[string]string](t, resp)
	if !strings.Contains(e["error"], "16") {
		t.Fatalf("error %q does not mention the cap", e["error"])
	}
}

func TestRouteLabelClassification(t *testing.T) {
	for path, want := range map[string]string{
		"/healthz":                      "healthz",
		"/v1/workloads":                 "workloads",
		"/v1/workloads/gl-30m/forecast": "workload_forecast",
		"/v1/workloads/gl-30m/observe":  "workload_observe",
		"/v1/workloads/gl-30m/model":    "workload_model",
		"/v1/workloads/gl-30m/junk":     "other",
		"/v1/workloads/":                "other",
		"/junk":                         "other",
	} {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestFleetDriftRebuildPromotionE2E is the PR's acceptance test: three
// workloads serve concurrent forecasts while one of them receives a
// distribution shift through the public API. The shifted workload must
// drift, rebuild in the background (a real core.Build on its observed
// history) and atomically promote the better model — without ever
// interrupting the other workloads — all verified through /debug/metrics.
func TestFleetDriftRebuildPromotionE2E(t *testing.T) {
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Patience = 0
	fopts := fleet.Options{
		Window:            8,
		MinSamples:        4,
		DriftThreshold:    50,
		HistoryCap:        256,
		MinRebuildHistory: 32,
		RebuildQueue:      8,
		RebuildBudget:     time.Minute,
		Build: core.Config{
			Space:      core.ScaledSpace(4, 2, 1, 8),
			MaxIters:   2,
			InitPoints: 2,
			Seed:       7,
			Train:      tc,
			Scaler:     "minmax",
			Parallel:   1,
		},
	}
	ts, s, fl := newFleetServer(t, fopts, Options{})
	// Force a deterministic promotion: the incumbent cannot win. Promote
	// re-caches the fleet's stored CV error for the workload.
	shifted, _ := fl.Model("gl-30m")
	shifted.ValError = 1e9
	if err := fl.Promote("gl-30m", shifted); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fl.Start(ctx)
	defer fl.Close()

	admin := httptest.NewServer(s.Admin(false))
	defer admin.Close()
	counters := func() map[string]int64 {
		resp, err := http.Get(admin.URL + "/debug/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeBody[obs.Snapshot](t, resp).Counters
	}

	// Background load: the healthy workloads keep forecasting throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	hist := fleetSeries(9, 24)
	fbody, _ := json.Marshal(ForecastRequest{History: hist, Steps: 2})
	for _, id := range []string{"wiki-5m", "az-1h"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/workloads/"+id+"/forecast", "application/json", bytes.NewReader(fbody))
				if err != nil {
					errs <- err
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK {
					errs <- fmt.Errorf("workload %s forecast status %d during rebuild", id, code)
					return
				}
			}
		}()
	}

	// Inject the shift through the public API: seed rebuild history, then
	// score wildly-off served forecasts.
	seed, _ := json.Marshal(map[string][]float64{"values": fleetSeries(5, 64)})
	if resp := postJSON(t, ts.URL+"/v1/workloads/gl-30m/observe", string(seed)); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding observe status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/workloads/gl-30m/forecast", string(fbody)); resp.StatusCode != http.StatusOK {
		t.Fatalf("shifted forecast status %d", resp.StatusCode)
	}
	// Two pending forecast steps exist; two more forecasts keep refreshing
	// the horizon so four observations all score.
	obsResp := postJSON(t, ts.URL+"/v1/workloads/gl-30m/observe", `{"values":[1000,1000]}`)
	if st := decodeBody[fleet.Status](t, obsResp); st.Scored != 2 {
		t.Fatalf("first shifted observe %+v", st)
	}
	if resp := postJSON(t, ts.URL+"/v1/workloads/gl-30m/forecast", string(fbody)); resp.StatusCode != http.StatusOK {
		t.Fatal("second forecast failed")
	}
	obsResp = postJSON(t, ts.URL+"/v1/workloads/gl-30m/observe", `{"values":[1000,1000]}`)
	st := decodeBody[fleet.Status](t, obsResp)
	if !st.Drift || !st.RebuildQueued {
		t.Fatalf("shifted workload status %+v, want drift + queued rebuild", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		c := counters()
		if c["fleet.rebuilds.ok"] >= 1 && c["fleet.promotions"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild did not complete; counters %v", c)
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The promoted model serves over HTTP with a sane CV error.
	resp, err := http.Get(ts.URL + "/v1/workloads/gl-30m/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	info := decodeBody[WorkloadModelInfo](t, resp)
	if info.ValidationMAPE >= 1e9 {
		t.Fatalf("shifted workload still serves the stale model: %+v", info)
	}
	if info.Workload.Drift {
		t.Fatalf("drift flag not cleared after promotion: %+v", info.Workload)
	}
	c := counters()
	if c["fleet.drift"] < 1 {
		t.Fatalf("drift transition not counted: %v", c)
	}
}

func TestObserveSignalsDegradedDurability(t *testing.T) {
	ffs := faultfs.New(nil)
	ts, _, fl := newFleetServer(t,
		fleet.Options{WAL: wal.Options{Dir: t.TempDir(), FS: ffs}}, Options{})

	workloadsDurability := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/workloads")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Durability string `json:"durability"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Durability
	}

	// Healthy WAL: no degraded header, workloads report ok.
	resp := postJSON(t, ts.URL+"/v1/workloads/gl-30m/observe", `{"values": [100, 101]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d, want 200", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Durability"); h != "" {
		t.Fatalf("healthy observe carries X-Durability %q", h)
	}
	if d := workloadsDurability(); d != "ok" {
		t.Fatalf("healthy durability = %q, want ok", d)
	}

	// Break the disk under the WAL. Ingest must still succeed — the
	// fleet degrades to memory-only — but the response now carries the
	// degraded-durability signal for pipelines that need to alert.
	ffs.FailWrites(0, 0)
	resp = postJSON(t, ts.URL+"/v1/workloads/gl-30m/observe", `{"values": [102, 103]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded observe status %d, want 200", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Durability"); h != "degraded" {
		t.Fatalf("degraded observe X-Durability = %q, want degraded", h)
	}
	if !fl.DurabilityDegraded() {
		t.Fatal("fleet does not report degraded durability")
	}
	if d := workloadsDurability(); d != "degraded" {
		t.Fatalf("durability = %q, want degraded", d)
	}
}
