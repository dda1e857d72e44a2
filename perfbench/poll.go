package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/serve"
)

// sizes are the workloads' fixed amounts of work.
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	pollWorkloads int
	pollPerSecond float64 // poll intervals per second of -seconds

	ingestWorkloads int
	ingestRate      float64 // offered records per second
	ingestWALValues int     // earlier telemetry per workload, replayed at set-up

	shiftScenarios int
}

// benchSizes are the sizes the benchmark runs at.
var benchSizes = sizes{
	setups:        3,
	pollWorkloads: 512, pollPerSecond: 3.5,
	ingestWorkloads: 1024, ingestRate: 50_000, ingestWALValues: 1100,
	shiftScenarios: 16,
}

const (
	pollWindow     = 48 // values sent with every forecast
	pollSteps      = 4  // single forecast horizon
	pollBatch      = 32 // workloads per forecast:batch request
	pollBatchSteps = 12 // forecast:batch horizon

	// pollNoRebuild is autoscale-poll's MinRebuildHistory, beyond the
	// fleet's 4096-value history cap: no workload is rebuilt however many
	// intervals a run polls, so BO never runs in this workload.
	pollNoRebuild = 1 << 30
)

// pollOut is one poll client's record of what it sent and received.
type pollOut struct {
	forecastUS, batchUS []float64
	requests            int64
	rejects             int64
	failures            []string
	failed              int64
}

func (o *pollOut) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runPoll is the autoscale-poll workload: two closed-loop clients, each on
// one keep-alive connection and owning half the fleet, poll forecasts the
// way an autoscaler does every interval and report the observed value.
func runPoll(cfg runConfig) (*runResult, error) {
	sz := cfg.size
	n := sz.pollWorkloads
	intervals := max(2, int(math.Round(cfg.seconds*sz.pollPerSecond)))
	state, err := ensureState(cfg.root, stateSpec{workload: "fleet", seed: cfg.seed, workloads: n})
	if err != nil {
		return nil, err
	}
	series := make([][]float64, n)
	for i := range series {
		series[i] = workloadSeries(cfg.seed, i, pollWindow+intervals)
	}
	res := newRunResult()
	p, err := setups(cfg, res, func(dir string) (bootOptions, error) {
		models := filepath.Join(dir, "models")
		if err := copyTree(filepath.Join(state, "models"), models); err != nil {
			return bootOptions{}, err
		}
		return bootOptions{dir: models, walDir: filepath.Join(dir, "wal"), cache: true, minRebuildHistory: pollNoRebuild}, nil
	})
	if err != nil {
		return nil, err
	}
	defer p.close()
	res.layers["fleet.loads"] = p.counter("fleet.loads")

	// served[i][t] is workload i's single forecast at interval t, batch[i][t]
	// its forecast:batch result.
	served := make([][][]float64, n)
	batch := make([][][]float64, n)
	for i := range served {
		served[i] = make([][]float64, intervals)
		batch[i] = make([][]float64, intervals)
	}
	outs := make([]pollOut, 2)
	clients := []*client{newClient(p.base), newClient(p.base)}
	defer clients[0].close()
	defer clients[1].close()
	half := n / 2
	var clock hostClock
	var scaledUS []float64 // single-forecast latencies in reference µs
	flight0 := p.fleet.Flight().Stats()
	ph := beginPhase(cfg.traced, nil)
	for t := 0; t < intervals; t++ {
		marks := [2]int{len(outs[0].forecastUS), len(outs[1].forecastUS)}
		clock.begin()
		var wg sync.WaitGroup
		for c := range outs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				pollInterval(clients[c], c*half, (c+1)*half, t, series, served, batch, &outs[c])
			}(c)
		}
		wg.Wait()
		f := clock.end()
		for c := range outs {
			for _, x := range outs[c].forecastUS[marks[c]:] {
				scaledUS = append(scaledUS, f*x)
			}
		}
	}
	ph.end()

	var all pollOut
	for _, o := range outs {
		all.forecastUS = append(all.forecastUS, o.forecastUS...)
		all.batchUS = append(all.batchUS, o.batchUS...)
		all.requests += o.requests
		all.rejects += o.rejects
		res.failed += o.failed
		for _, f := range o.failures {
			if len(res.failures) < 10 {
				res.failures = append(res.failures, f)
			}
		}
	}
	res.attempted = all.requests
	ph.record(res, all.requests)
	clock.record(res)
	latencies(res, scaledUS)
	flight1 := p.fleet.Flight().Stats()

	// Every served forecast must equal a reference computed from the same
	// snapshot and window; the traced run also times the inference replays.
	predUS, batchUS := checkPoll(cfg, res, state, series, served, batch, intervals)

	var pred, actual []float64
	for i := 0; i < n; i++ {
		for t := 0; t < intervals; t++ {
			if served[i][t] != nil {
				pred = append(pred, served[i][t][0])
				actual = append(actual, series[i][pollWindow+t])
			}
		}
	}
	mape, scored := mapeOf(pred, actual)
	hits, misses := p.counter("fleet.cache.hit"), p.counter("fleet.cache.miss")
	res.layers["quality.forecast_mape_pct"] = mape
	res.layers["fleet.cache.hit_share"] = ratio(hits, hits+misses)
	res.layers["client.batch_p50_ms"] = median(append([]float64(nil), all.batchUS...)) / 1000
	res.layers["serve.rejects"] = float64(all.rejects)
	res.layers["obs.flight.recorded"] = float64(flight1.Recorded - flight0.Recorded)
	res.layers["obs.flight.sampled_out"] = float64(flight1.SampledOut - flight0.SampledOut)
	if cfg.traced {
		hf := p.timer.samples("forecast")
		res.layers["serve.forecast_us"] = median(hf)
		res.layers["serve.batch_us"] = median(p.timer.samples("batch"))
		res.layers["serve.observe_us"] = median(p.timer.samples("observe"))
		res.layers["net.forecast_us"] = median(append([]float64(nil), all.forecastUS...)) - res.layers["serve.forecast_us"]
		res.layers["core.predict_us"] = median(predUS)
		res.layers["core.predict_batch_us"] = median(batchUS)
		// Handler time not spent in inference: decode, registry, cache,
		// evaluator bookkeeping, encode, request logging. Means add up where
		// medians do not; only the first of each repeated pair runs the model.
		primaries := float64(n * intervals)
		res.layers["unaccounted.forecast_us"] = mean(hf) - ratio(primaries, float64(len(hf)))*mean(predUS)
	}
	res.note("intervals %d workloads %d requests %d forecast_p50_ms %.4f forecast_p99_ms %.4f batch_p50_ms %.4f poll_rps %.1f forecast_mape_pct %.6f (%d scored); raw wall clock",
		intervals, n, all.requests, median(append([]float64(nil), all.forecastUS...))/1000, quantile(append([]float64(nil), all.forecastUS...), 0.99)/1000,
		res.layers["client.batch_p50_ms"], float64(all.requests)/sum(clock.wall), mape, scored)
	return res, nil
}

// pollInterval drives workloads [lo, hi) for interval t: per group of 32
// workloads, one forecast each (an identical repeat on every second
// workload), one forecast:batch over the group, then each observed value.
func pollInterval(cl *client, lo, hi, t int, series [][]float64, served, batch [][][]float64, out *pollOut) {
	var body []byte
	for g := lo; g < hi; g += pollBatch {
		ge := min(g+pollBatch, hi)
		for i := g; i < ge; i++ {
			window := series[i][t : t+pollWindow]
			body = forecastBody(body[:0], window, pollSteps)
			path := "/v1/workloads/" + workloadID(i) + "/forecast"
			fc, ok := pollForecast(cl, path, body, out)
			if !ok {
				continue
			}
			served[i][t] = fc
			if i%2 == 1 {
				again, ok := pollForecast(cl, path, body, out)
				if ok && !equalFloats(again, fc) {
					out.fail("workload %d interval %d: repeated forecast differs", i, t)
				}
			}
		}
		body = batchBody(body[:0], g, ge, t, series)
		start := time.Now()
		code, resp, err := cl.post("/v1/forecast:batch", body)
		out.batchUS = append(out.batchUS, us(time.Since(start)))
		out.requests++
		if !okStatus(code, err, out, "forecast:batch") {
			continue
		}
		var br serve.BatchForecastResponse
		if err := json.Unmarshal(resp, &br); err != nil || len(br.Results) != ge-g {
			out.fail("forecast:batch: malformed response")
			continue
		}
		for k, r := range br.Results {
			if r.Error != "" || len(r.Forecasts) != pollBatchSteps {
				out.fail("forecast:batch entry %s: %q", r.Workload, r.Error)
				continue
			}
			batch[g+k][t] = r.Forecasts
		}
		for i := g; i < ge; i++ {
			body = append(body[:0], `{"values":[`...)
			body = strconv.AppendFloat(body, series[i][pollWindow+t], 'g', -1, 64)
			body = append(body, "]}"...)
			code, resp, err := cl.post("/v1/workloads/"+workloadID(i)+"/observe", body)
			out.requests++
			if !okStatus(code, err, out, "observe") {
				continue
			}
			var st struct{ Accepted, Scored int }
			if err := json.Unmarshal(resp, &st); err != nil || st.Accepted != 1 || st.Scored != 1 {
				out.fail("observe %s: accepted/scored %d/%d, want 1/1", workloadID(i), st.Accepted, st.Scored)
			}
		}
	}
}

func pollForecast(cl *client, path string, body []byte, out *pollOut) ([]float64, bool) {
	start := time.Now()
	code, resp, err := cl.post(path, body)
	out.forecastUS = append(out.forecastUS, us(time.Since(start)))
	out.requests++
	if !okStatus(code, err, out, path) {
		return nil, false
	}
	var fr serve.ForecastResponse
	if err := json.Unmarshal(resp, &fr); err != nil || len(fr.Forecasts) != pollSteps || fr.Degraded {
		out.fail("%s: malformed or degraded forecast", path)
		return nil, false
	}
	return fr.Forecasts, true
}

// okStatus counts transport errors and non-2xx answers as failed
// operations, 429/503 also as rejects.
func okStatus(code int, err error, out *pollOut, what string) bool {
	switch {
	case err != nil:
		out.fail("%s: %v", what, err)
		return false
	case code == 429 || code == 503:
		out.rejects++
		out.fail("%s: status %d", what, code)
		return false
	case code/100 != 2:
		out.fail("%s: status %d", what, code)
		return false
	}
	return true
}

func forecastBody(b []byte, history []float64, steps int) []byte {
	b = append(b, `{"history":`...)
	b = appendFloats(b, history)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(steps), 10)
	return append(b, '}')
}

func batchBody(b []byte, lo, hi, t int, series [][]float64) []byte {
	b = append(b, `{"entries":[`...)
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = append(b, `{"workload":"`...)
		b = append(b, workloadID(i)...)
		b = append(b, `","history":`...)
		b = appendFloats(b, series[i][t:t+pollWindow])
		b = append(b, `,"steps":`...)
		b = strconv.AppendInt(b, pollBatchSteps, 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

func appendFloats(b []byte, xs []float64) []byte {
	b = append(b, '[')
	for k, x := range xs {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkPoll compares every served forecast with core.LoadFile +
// PredictSteps on the same snapshot and window (relative 1e-9). In the
// traced run it also times replays of the inference the server ran:
// PredictStepsInto per single forecast and, per forecast:batch request, the
// PredictStepsBatch calls its per-model groups make. It returns those
// replay times in microseconds.
func checkPoll(cfg runConfig, res *runResult, state string, series [][]float64, served, batch [][][]float64, intervals int) (predUS, batchUS []float64) {
	n := len(series)
	models := make([]*core.Model, n)
	for i := range models {
		m, err := core.LoadFile(filepath.Join(state, "models", workloadID(i)+".model.json"))
		if err != nil {
			res.fail("loading reference model %d: %v", i, err)
			return nil, nil
		}
		models[i] = m
	}
	check := func(i, t int, got []float64, steps int, what string) {
		if got == nil {
			return // already counted as failed
		}
		want, err := models[i].PredictSteps(series[i][t:t+pollWindow], steps)
		if err != nil {
			res.fail("reference %s %d/%d: %v", what, i, t, err)
			return
		}
		for k := range want {
			if !closeRel(got[k], want[k], 1e-9) {
				res.fail("%s workload %d interval %d step %d: served %v, reference %v", what, i, t, k, got[k], want[k])
				return
			}
		}
	}
	for i := 0; i < n; i++ {
		for t := 0; t < intervals; t++ {
			check(i, t, served[i][t], pollSteps, "forecast")
			check(i, t, batch[i][t], pollBatchSteps, "forecast:batch")
		}
	}
	if !cfg.traced {
		return nil, nil
	}
	ctx := context.Background()
	out := make([]float64, pollSteps)
	for t := 0; t < intervals; t++ {
		for i := 0; i < n; i++ {
			start := time.Now()
			models[i].PredictStepsInto(ctx, series[i][t:t+pollWindow], out)
			predUS = append(predUS, us(time.Since(start)))
		}
		for g := 0; g < n; g += pollBatch {
			start := time.Now()
			for i := g; i < min(g+pollBatch, n); i++ {
				models[i].PredictStepsBatch(ctx, [][]float64{series[i][t : t+pollWindow]}, []int{pollBatchSteps})
			}
			batchUS = append(batchUS, us(time.Since(start)))
		}
	}
	return predUS, batchUS
}
