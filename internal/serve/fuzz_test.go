package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/nn"
	"loaddynamics/internal/obs"
)

// fuzzServer builds one tiny-model server per process — a one-workload
// memory-only fleet serving "default" — with an instant stub predictor, so
// the fuzzer spends its budget on the request decoder and validation chain,
// not on LSTM math. The fleet's ingest workers run, so records accepted by
// the stream target drain instead of filling the shard queue. The fleet
// lives as long as the process.
var fuzzServer = sync.OnceValue(func() *Server {
	rng := rand.New(rand.NewSource(7))
	series := make([]float64, 80)
	for i := range series {
		series[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/12) + rng.NormFloat64()
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Patience = 0
	m, err := core.TrainSingle(core.Config{Seed: 7, Train: tc},
		series[:60], series[60:], core.Hyperparams{HistoryLen: 4, CellSize: 2, Layers: 1, BatchSize: 8})
	if err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	fl, err := fleet.Open(fleet.Options{Metrics: reg})
	if err != nil {
		panic(err)
	}
	if err := fl.Add("default", m); err != nil {
		panic(err)
	}
	fl.StartIngest()
	s, err := NewFleet(fl, Options{Metrics: reg})
	if err != nil {
		panic(err)
	}
	s.predict = func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
		out := make([]float64, steps)
		for i := range out {
			out[i] = history[len(history)-1]
		}
		return out, nil
	}
	s.predictBatch = func(ctx context.Context, m *core.Model, histories [][]float64, steps []int) ([][]float64, error) {
		out := make([][]float64, len(histories))
		for i, h := range histories {
			out[i] = make([]float64, steps[i])
			for k := range out[i] {
				out[i][k] = h[len(h)-1]
			}
		}
		return out, nil
	}
	return s
})

// FuzzObserveHandler throws arbitrary request bodies at the fleet observe
// endpoint: the handler must never panic, must answer only 200 or 400 (the
// default workload exists, so 404 is unreachable), and must always produce
// valid JSON. A 200 must carry a well-formed evaluator status whose scored
// count never exceeds the accepted count.
func FuzzObserveHandler(f *testing.F) {
	f.Add([]byte(`{"values":[1,2,3]}`))
	f.Add([]byte(`{"values":[0]}`))
	f.Add([]byte(`{"values":[]}`))
	f.Add([]byte(`{"values":[-1]}`))
	f.Add([]byte(`{"values":[1e999]}`))
	f.Add([]byte(`{"values":[NaN]}`))
	f.Add([]byte(`{"values":"not an array"}`))
	f.Add([]byte(`{"values":[1],"extra":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzServer()
		req := httptest.NewRequest(http.MethodPost, "/v1/workloads/default/observe", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("body %q: status %d, want 200 or 400", body, rec.Code)
		}
		var decoded any
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("body %q: non-JSON response %q: %v", body, rec.Body.Bytes(), err)
		}
		if rec.Code == http.StatusOK {
			var st fleet.Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("body %q: 200 response did not decode: %v", body, err)
			}
			if st.Accepted <= 0 || st.Scored > st.Accepted {
				t.Fatalf("body %q: inconsistent status %+v", body, st)
			}
			if math.IsNaN(st.RollingMAPE) || math.IsNaN(st.RollingRMSE) {
				t.Fatalf("body %q: non-finite rolling errors %+v", body, st)
			}
		}
	})
}

// FuzzForecastHandler throws arbitrary request bodies at POST
// /v1/workloads/default/forecast:
// the handler must never panic, must answer only 200 or 400 (the stub
// predictor cannot time out, err or overload), and must always produce valid
// JSON — a malformed payload must never leak a non-JSON error page to the
// auto-scaler client.
func FuzzForecastHandler(f *testing.F) {
	f.Add([]byte(`{"history":[1,2,3,4,5],"steps":2}`))
	f.Add([]byte(`{"history":[1,2,3,4],"steps":0}`))
	f.Add([]byte(`{"history":[],"steps":1}`))
	f.Add([]byte(`{"history":[1,2,3,4],"steps":-1}`))
	f.Add([]byte(`{"history":[1,2,3,4],"steps":100000}`))
	f.Add([]byte(`{"history":[1,2,-3,4],"steps":1}`))
	f.Add([]byte(`{"history":[1,2,NaN,4],"steps":1}`))
	f.Add([]byte(`{"history":[1,2,1e999,4],"steps":1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"history":"not an array"}`))
	// Batch-shaped bodies posted at the single endpoint must be rejected
	// cleanly, not misparsed.
	f.Add([]byte(`{"entries":[{"workload":"default","history":[1,2,3,4],"steps":1}]}`))
	f.Add([]byte(`{"entries":[]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzServer()
		req := httptest.NewRequest(http.MethodPost, "/v1/workloads/default/forecast", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("body %q: status %d, want 200 or 400", body, rec.Code)
		}
		var decoded any
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("body %q: non-JSON response %q: %v", body, rec.Body.Bytes(), err)
		}
		if rec.Code == http.StatusOK {
			var out ForecastResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("body %q: 200 response did not decode: %v", body, err)
			}
			if len(out.Forecasts) == 0 {
				t.Fatalf("body %q: 200 response with no forecasts", body)
			}
			if !allFinite(out.Forecasts) {
				t.Fatalf("body %q: non-finite forecasts %v", body, out.Forecasts)
			}
		}
	})
}

// FuzzForecastBatchHandler throws arbitrary bodies at POST /v1/forecast:batch:
// the handler must never panic, must answer only 200 or 400 (per-entry
// failures land in the entry's error field, not the status), must always
// produce valid JSON, and a 200 must carry exactly one result per request
// entry with finite forecasts on the successful ones.
func FuzzForecastBatchHandler(f *testing.F) {
	f.Add([]byte(`{"entries":[{"workload":"default","history":[1,2,3,4,5],"steps":2}]}`))
	f.Add([]byte(`{"entries":[{"workload":"default","history":[1,2,3,4],"steps":1},{"workload":"default","history":[5,6,7,8],"steps":3}]}`))
	f.Add([]byte(`{"entries":[{"workload":"nope","history":[1,2,3,4],"steps":1}]}`))
	f.Add([]byte(`{"entries":[{"workload":"bad id!","history":[1,2,3,4],"steps":1}]}`))
	f.Add([]byte(`{"entries":[{"workload":"default","history":[1,2],"steps":1}]}`))
	f.Add([]byte(`{"entries":[{"workload":"default","history":[],"steps":1}]}`))
	f.Add([]byte(`{"entries":[{"workload":"default","history":[1,2,NaN,4],"steps":1}]}`))
	f.Add([]byte(`{"entries":[{"workload":"default","history":[1,2,3,4],"steps":-1}]}`))
	f.Add([]byte(`{"entries":[{"workload":"default","history":[-1,2,3,4],"steps":1}]}`))
	f.Add([]byte(`{"entries":[]}`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`{"entries":"not an array"}`))
	f.Add([]byte(`{"history":[1,2,3,4],"steps":1}`)) // single-shaped body at the batch endpoint
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzServer()
		var req BatchForecastRequest
		wantResults := -1
		if err := json.Unmarshal(body, &req); err == nil {
			wantResults = len(req.Entries)
		}
		hreq := httptest.NewRequest(http.MethodPost, "/v1/forecast:batch", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, hreq)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("body %q: status %d, want 200 or 400", body, rec.Code)
		}
		var decoded any
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("body %q: non-JSON response %q: %v", body, rec.Body.Bytes(), err)
		}
		if rec.Code == http.StatusOK {
			var out BatchForecastResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("body %q: 200 response did not decode: %v", body, err)
			}
			if wantResults >= 0 && len(out.Results) != wantResults {
				t.Fatalf("body %q: %d results for %d entries", body, len(out.Results), wantResults)
			}
			for i, r := range out.Results {
				if r.Error != "" {
					if len(r.Forecasts) != 0 {
						t.Fatalf("body %q: result %d has both error and forecasts: %+v", body, i, r)
					}
					continue
				}
				if len(r.Forecasts) == 0 {
					t.Fatalf("body %q: result %d has neither error nor forecasts", body, i)
				}
				if !allFinite(r.Forecasts) {
					t.Fatalf("body %q: result %d non-finite forecasts %v", body, i, r.Forecasts)
				}
			}
		}
	})
}
