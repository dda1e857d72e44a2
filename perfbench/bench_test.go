package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"loaddynamics/internal/serve"
)

// TestMain lets the test binary stand in for the harness binary when it
// re-executes itself to generate state (-gen).
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-gen") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeSizes keep the harness's own tests to a few seconds.
var smokeSizes = sizes{
	setups:        2,
	pollWorkloads: 64, pollPerSecond: 4,
	ingestWorkloads: 64, ingestRate: 20_000, ingestWALValues: 64,
	shiftScenarios: 1,
}

func smokeRun(t *testing.T, root string, run func(runConfig) (*runResult, error), seed int64, traced bool) *runResult {
	t.Helper()
	cfg := runConfig{
		root:    root,
		workDir: t.TempDir(),
		seed:    seed,
		seconds: 2,
		traced:  traced,
		size:    smokeSizes,
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("attempted %d failed %d: %v", res.attempted, res.failed, res.failures)
	}
	for _, d := range e2eDefs {
		if !(res.e2e[d.name] > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.e2e[d.name])
		}
	}
	return res
}

func TestWorkloadsSmoke(t *testing.T) {
	root := t.TempDir()
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			res := smokeRun(t, root, run, 1, true)
			for _, d := range layerDefs {
				if layerOf(name, d.name) && !(res.layers[d.name] > 0) {
					t.Errorf("layer metric %s = %v, want > 0", d.name, res.layers[d.name])
				}
			}
		})
	}
}

// layerOf reports the layer metrics each workload must produce.
func layerOf(workload, metric string) bool {
	switch metric {
	case "serve.forecast_us", "core.predict_us", "fleet.cache.hit_share", "quality.forecast_mape_pct":
		return workload == "autoscale-poll"
	case "serve.stream_us", "wal.records", "fleet.ingest.records_per_chunk", "gen.late_p99_ms":
		return workload == "telemetry-ingest"
	case "fleet.rebuild_ms", "fleet.rebuild.self_ms", "core.candidates", "bo.rounds", "quality.promoted_share":
		return workload == "regime-shift"
	}
	return false
}

// Quality figures repeat exactly for one seed and change with another.
func TestQualityDeterministicPerSeed(t *testing.T) {
	root := t.TempDir()
	a := smokeRun(t, root, runPoll, 1, false).layers["quality.forecast_mape_pct"]
	b := smokeRun(t, root, runPoll, 1, false).layers["quality.forecast_mape_pct"]
	c := smokeRun(t, root, runPoll, 2, false).layers["quality.forecast_mape_pct"]
	if a != b {
		t.Errorf("seed 1 forecast MAPE %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same forecast MAPE %v", a)
	}
}

func TestIngestLedger(t *testing.T) {
	const n = ingestFrame
	body := func(accepted, rejected int, stopped bool) []byte {
		b, _ := json.Marshal(serve.StreamResponse{Accepted: accepted, Rejected: rejected, Stopped: stopped})
		return b
	}
	for _, tc := range []struct {
		name     string
		code     int
		body     []byte
		err      error
		balanced bool
		failed   int64 // rejected + shed + errors + bad
	}{
		{"all accepted", 200, body(n, 0, false), nil, true, 0},
		{"per-record rejects", 200, body(n-3, 3, false), nil, true, 3},
		{"shed", 429, body(100, 0, true), nil, true, n - 100},
		{"transport error", 0, nil, errors.New("connection reset"), true, n},
		{"server error", 500, []byte(`{"error":"boom"}`), nil, true, n},
		{"under-reported 200", 200, body(n-10, 0, false), nil, false, 0},
		{"over-reported 200", 200, body(n+5, 0, false), nil, false, 1},
		{"over-reported 429", 429, body(n, 9, true), nil, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l ingestLedger
			l.account(n, tc.code, tc.body, tc.err)
			if got := l.balanced(); got != tc.balanced {
				t.Errorf("balanced = %v, want %v (%+v)", got, tc.balanced, l)
			}
			if got := l.rejected + l.shed + l.errors + l.bad; got != tc.failed {
				t.Errorf("failed records %d, want %d (%+v)", got, tc.failed, l)
			}
			if tc.failed > 0 || !tc.balanced {
				if len(l.failures) == 0 {
					t.Error("no failure reason recorded")
				}
			}
		})
	}
}

// Each slice is scaled by the reference over the mean of the two probes
// that bracket it, and work_s and cpu_s are the scaled totals.
func TestHostClockBracketsSlices(t *testing.T) {
	var h hostClock
	for k := 0; k < 3; k++ {
		h.begin()
		time.Sleep(time.Millisecond)
		if f := h.end(); !(f > 0) {
			t.Fatalf("slice %d scale %v", k, f)
		}
	}
	if len(h.probes) != len(h.wall)+1 {
		t.Fatalf("%d probes for %d slices", len(h.probes), len(h.wall))
	}
	var work, cpu float64
	for k, f := range h.scale {
		if want := 2 * probeNominal.Seconds() / (h.probes[k] + h.probes[k+1]); f != want {
			t.Errorf("slice %d scale %v, want %v", k, f, want)
		}
		work += f * h.wall[k]
		cpu += f * h.cpu[k]
	}
	res := newRunResult()
	h.record(res)
	if res.e2e["work_s"] != work || res.e2e["cpu_s"] != cpu {
		t.Errorf("work_s %v cpu_s %v, want %v %v", res.e2e["work_s"], res.e2e["cpu_s"], work, cpu)
	}
}

func TestUnionDuration(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{base.Add(time.Duration(a) * time.Millisecond), base.Add(time.Duration(b) * time.Millisecond)}
	}
	ivs := []interval{at(10, 30), at(20, 40), at(50, 60), at(55, 58), at(90, 200)}
	if got, want := unionDuration(ivs, at(0, 100)), 50*time.Millisecond; got != want {
		t.Errorf("union = %v, want %v", got, want)
	}
	if got := unionDuration(nil, at(0, 100)); got != 0 {
		t.Errorf("empty union = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}
