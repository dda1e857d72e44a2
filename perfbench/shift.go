package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/profile"
	"loaddynamics/internal/serve"
	"loaddynamics/internal/traces"
)

// A shift scenario moves one onboarded workload from a bursty small-count
// regime to a large, smoother one (a tenant migration): the incumbent LSTM,
// scaled for the old range, misses the new level by far more than the drift
// rule allows, and a model rebuilt on the new regime validates better than
// the incumbent did on the old one, so every rebuild is promoted.
//
// The histories the builds train on are fixed per scenario, so onboarding
// and every rebuild do the same search work on every seed: BO draws
// hyperparameters whose training cost differs by an order of magnitude, so
// seed-dependent training data would make the loop's cost vary far more
// between seeds than between commits. The seed picks which stretch of the
// new regime the promoted model is scored on.
type scenario struct {
	from     traces.Kind
	fromSeed int64
	to       traces.Kind
	toSeed   int64
	scale    float64
}

var scenarios = []scenario{
	{traces.LCG, 11, traces.Google, 21, 0.01},
	{traces.Facebook, 12, traces.Wikipedia, 22, 0.002},
	{traces.LCG, 13, traces.Wikipedia, 23, 0.002},
	{traces.Facebook, 14, traces.Google, 24, 0.02},
	{traces.LCG, 15, traces.Google, 25, 0.01},
	{traces.Facebook, 16, traces.Wikipedia, 26, 0.002},
	{traces.LCG, 17, traces.Wikipedia, 27, 0.002},
	{traces.Facebook, 18, traces.Google, 28, 0.02},
	{traces.LCG, 31, traces.Google, 41, 0.01},
	{traces.Facebook, 32, traces.Wikipedia, 42, 0.002},
	{traces.LCG, 33, traces.Wikipedia, 43, 0.002},
	{traces.Facebook, 34, traces.Google, 44, 0.02},
	{traces.LCG, 35, traces.Google, 45, 0.01},
	{traces.Facebook, 36, traces.Wikipedia, 46, 0.002},
	{traces.LCG, 37, traces.Wikipedia, 47, 0.002},
	{traces.Facebook, 38, traces.Google, 48, 0.02},
}

const (
	onboardValues = 128 // pre-shift history each workload is onboarded on
	rebuildAfter  = 256 // new-regime observations a drifted workload is rebuilt on
	shiftValues   = 320 // fixed stretch of the new regime fed until a rebuild is queued
	shiftMaxFeed  = 320 // shifted observations without a queued rebuild = a failed shift
	scoreValues   = 48  // post-verdict intervals the served model is scored on
	scoreOffsets  = 49  // the seed picks one of this many scoring stretches
)

func (s scenario) id(j int) string { return fmt.Sprintf("shift%d-%s", j, s.from) }

func (s scenario) onboardHistory() []float64 {
	ser, err := traces.Generate(s.from, 1, s.fromSeed)
	if err != nil {
		panic(err) // scenario kinds are valid by construction
	}
	return ser.Values[:onboardValues]
}

// newRegime is the shifted series: shiftValues fixed values, then the
// continuation the promoted model is scored on.
func (s scenario) newRegime() []float64 {
	ser, err := traces.Generate(s.to, 2, s.toSeed)
	if err != nil {
		panic(err)
	}
	out := make([]float64, shiftValues+scoreOffsets+scoreValues)
	for i := range out {
		out[i] = math.Round(ser.Values[i] * s.scale)
	}
	return out
}

// onboard builds and registers every scenario workload the way
// `loadctl fleet` does: a cold core build on its pre-shift history,
// Fleet.Add and RecordBuildOutcome.
func onboard(fl *fleet.Fleet, scens []scenario) error {
	for j, s := range scens {
		hist := s.onboardHistory()
		split := len(hist) * 3 / 4
		cfg := core.QuickConfig()
		cfg.Seed = s.fromSeed
		fw, err := core.New(cfg)
		if err != nil {
			return err
		}
		res, err := fw.Build(hist[:split], hist[split:])
		if err != nil {
			return fmt.Errorf("onboarding %s: %w", s.id(j), err)
		}
		if err := fl.Add(s.id(j), res.Best); err != nil {
			return err
		}
		if err := fl.RecordBuildOutcome(s.id(j), hist[:split], res, profile.WarmStart{}); err != nil {
			return err
		}
	}
	return nil
}

// shiftOutcome is one shift's record.
type shiftOutcome struct {
	feed, recover time.Duration
	detect        int // shifted observations until the first drift verdict
	promoted      bool
	mape          float64
}

// runShift is the regime-shift workload: one closed-loop client walks each
// onboarded workload through a regime shift — forecast and observe the new
// regime until observe answers rebuild_queued, poll the workload until the
// rebuild's verdict, then score the served model on the next intervals.
func runShift(cfg runConfig) (*runResult, error) {
	scens := scenarios[:cfg.size.shiftScenarios]
	res := newRunResult()
	p, err := setups(cfg, res, func(dir string) (bootOptions, error) {
		return bootOptions{
			dir:               filepath.Join(dir, "models"),
			minRebuildHistory: rebuildAfter,
			onboard:           func(fl *fleet.Fleet) error { return onboard(fl, scens) },
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer p.close()
	res.layers["fleet.loads"] = p.counter("fleet.loads")

	cl := newClient(p.base)
	defer cl.close()
	var reqUS []float64
	var outcomes []shiftOutcome
	var clock hostClock
	flight0 := p.fleet.Flight().Stats()
	ph := beginPhase(cfg.traced, nil)
	for j, s := range scens {
		clock.begin()
		o, lat := shiftOne(cl, res, s, j, cfg.seed)
		clock.end()
		reqUS = append(reqUS, lat...)
		outcomes = append(outcomes, o)
	}
	ph.end()
	flight1 := p.fleet.Flight().Stats()
	res.attempted += int64(len(reqUS))
	ph.record(res, int64(len(reqUS)))
	clock.record(res)

	var recover, recoverUS, feed, detect, mapes []float64
	promoted := 0
	for j, o := range outcomes {
		recover = append(recover, o.recover.Seconds())
		recoverUS = append(recoverUS, clock.scale[j]*us(o.recover))
		feed = append(feed, ms(o.feed))
		detect = append(detect, float64(o.detect))
		mapes = append(mapes, o.mape)
		if o.promoted {
			promoted++
		}
	}
	// This workload's unit of work is a shift, so its latency is the
	// recovery time per shift, in reference seconds, and as the mean: the
	// sixteen scenarios' rebuilds differ in cost, and their median jumped
	// between neighbouring scenarios from run to run. Single requests to an
	// otherwise idle server are printed on the info line.
	latencies(res, recoverUS)
	res.e2e["latency_ms"] = mean(recoverUS) / 1000
	res.layers["loop.recover_s"] = mean(recover)
	res.layers["fleet.drift.detect_obs"] = mean(detect)
	res.layers["quality.post_shift_mape_pct"] = mean(mapes)
	// Every rebuild attempt counts, so a rebuild that errors out or times
	// out lowers the share instead of leaving the denominator.
	attempts := 0.0
	for _, c := range []string{"ok", "rejected", "failed", "timeout", "cancelled"} {
		attempts += p.counter("fleet.rebuilds." + c)
	}
	res.layers["quality.promoted_share"] = ratio(float64(promoted), attempts)
	res.layers["obs.flight.recorded"] = float64(flight1.Recorded - flight0.Recorded)
	res.layers["obs.flight.sampled_out"] = float64(flight1.SampledOut - flight0.SampledOut)
	if cfg.traced {
		rebuildLayers(res, p.trace.Spans())
		res.layers["serve.forecast_us"] = median(p.timer.samples("forecast"))
		res.layers["serve.observe_us"] = median(p.timer.samples("observe"))
		res.layers["serve.status_us"] = median(p.timer.samples("status"))
		// Recovery beyond feeding the new regime and the rebuild itself:
		// queueing for the rebuild worker and the status-poll granularity.
		res.layers["unaccounted.recover_ms"] = 1000*mean(recover) - mean(feed) - res.layers["fleet.rebuild_ms"]
	}
	res.note("shifts %d promoted %d recover_s %.4f recover_p50_ms %.4f post_shift_mape_pct %.6f promoted_share %.4f detect_obs %.2f requests %d request_p50_ms %.4f request_p99_ms %.4f; raw wall clock",
		len(outcomes), promoted, mean(recover), 1000*median(append([]float64(nil), recover...)), mean(mapes), res.layers["quality.promoted_share"], mean(detect), len(reqUS),
		quantile(reqUS, 0.5)/1000, quantile(reqUS, 0.99)/1000)
	return res, nil
}

// shiftOne runs one scenario end to end and returns its outcome and the
// client latency (µs) of its forecast and observe requests.
func shiftOne(cl *client, res *runResult, s scenario, j int, seed int64) (shiftOutcome, []float64) {
	id := s.id(j)
	var o shiftOutcome
	var lat []float64
	before, ok := workloadStatus(cl, res, id)
	if !ok {
		return o, lat
	}
	hist := s.onboardHistory()
	regime := s.newRegime()
	window := func(k int) []float64 { // the 48 values before new-regime index k
		all := append(append([]float64(nil), hist...), regime[:k]...)
		return all[len(all)-pollWindow:]
	}
	forecast := func(k int) (float64, bool) {
		start := time.Now()
		code, body, err := cl.post("/v1/workloads/"+id+"/forecast", forecastBody(nil, window(k), 1))
		lat = append(lat, us(time.Since(start)))
		var fr serve.ForecastResponse
		if err != nil || code != 200 || json.Unmarshal(body, &fr) != nil || len(fr.Forecasts) != 1 {
			res.fail("%s: forecast at %d failed (status %d, %v)", id, k, code, err)
			return 0, false
		}
		return fr.Forecasts[0], true
	}

	start := time.Now()
	o.detect = -1
	queued := false
	fed := 0
	for ; fed < shiftMaxFeed && !queued; fed++ {
		k := fed
		forecast(k)
		t := time.Now()
		code, body, err := cl.post("/v1/workloads/"+id+"/observe",
			append(strconv.AppendFloat([]byte(`{"values":[`), regime[k], 'g', -1, 64), "]}"...))
		lat = append(lat, us(time.Since(t)))
		var st fleet.Status
		if err != nil || code != 200 || json.Unmarshal(body, &st) != nil {
			res.fail("%s: observe at %d failed (status %d, %v)", id, k, code, err)
			continue
		}
		if st.Drift && o.detect < 0 {
			o.detect = k + 1
		}
		queued = st.RebuildQueued
	}
	o.feed = time.Since(start)
	if !queued {
		res.fail("%s: no rebuild queued after %d shifted observations", id, shiftMaxFeed)
		return o, lat
	}
	after, ok := awaitVerdict(cl, res, id, before)
	o.recover = time.Since(start)
	if !ok {
		return o, lat
	}
	// Every scenario's rebuild validates better than its incumbent, so a
	// rejection is as much a failed shift as a rebuild that errored out.
	o.promoted = after.Workload.Promotions > before.Workload.Promotions
	if !o.promoted {
		res.fail("%s: rebuild rejected, incumbent kept", id)
	} else {
		if !(after.Workload.ValError < before.Workload.ValError) {
			res.fail("%s: promoted a model with CV error %v, incumbent %v", id, after.Workload.ValError, before.Workload.ValError)
		}
		if version(after) <= version(before) {
			res.fail("%s: model version went from %d to %d", id, version(before), version(after))
		}
	}
	// Score the served model on the next intervals of the new regime; the
	// seed picks the stretch. Scoring does not observe, so it cannot
	// re-trigger drift.
	off := fed + int(((seed*7919+int64(j)*31)%scoreOffsets+scoreOffsets)%scoreOffsets)
	var pred, actual []float64
	for i := 0; i < scoreValues; i++ {
		k := off + i
		if f, ok := forecast(k); ok {
			pred = append(pred, f)
			actual = append(actual, regime[k])
		}
	}
	o.mape, _ = mapeOf(pred, actual)
	return o, lat
}

func version(st serve.WorkloadStatusResponse) int64 {
	if st.Profile.LastOutcome == nil {
		return 0
	}
	return st.Profile.LastOutcome.ModelVersion
}

func workloadStatus(cl *client, res *runResult, id string) (serve.WorkloadStatusResponse, bool) {
	var st serve.WorkloadStatusResponse
	code, body, err := cl.get("/v1/workloads/" + id)
	if err != nil || code != 200 || json.Unmarshal(body, &st) != nil {
		res.fail("%s: status failed (status %d, %v)", id, code, err)
		return st, false
	}
	return st, true
}

// awaitVerdict polls the workload every 5 ms until its rebuild count moves
// past before's. The fleet counts every finished attempt there — failed
// and timed-out ones too — so the attempt is a verdict only if it also
// promoted or rejected a model; anything else fails the shift.
func awaitVerdict(cl *client, res *runResult, id string, before serve.WorkloadStatusResponse) (serve.WorkloadStatusResponse, bool) {
	verdicts := func(st serve.WorkloadStatusResponse) int64 {
		return st.Workload.Promotions + st.Workload.RejectedPromotions
	}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := workloadStatus(cl, res, id)
		if !ok {
			return st, false
		}
		if st.Workload.Rebuilds > before.Workload.Rebuilds {
			if verdicts(st) <= verdicts(before) {
				res.fail("%s: rebuild ended without a verdict (failed or timed out)", id)
				return st, false
			}
			return st, true
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.fail("%s: no rebuild verdict within two minutes", id)
	return serve.WorkloadStatusResponse{}, false
}

// rebuildLayers derives the build-layer metrics from the spans the fleet,
// BO and core recorded: per rebuild, its duration and self time (duration
// minus the union of its child spans — candidates train in parallel), the
// candidates, BO rounds and proposal time under it.
func rebuildLayers(res *runResult, spans []obs.SpanRecord) {
	end := func(s obs.SpanRecord) time.Time {
		return s.Start.Add(time.Duration(s.DurationMS * float64(time.Millisecond)))
	}
	var rebuilds, children []obs.SpanRecord
	var candMS []float64
	var busy, materialize, propose float64
	var rounds, diverged, warm int
	var toBest []float64
	for _, s := range spans {
		switch s.Name {
		case "fleet.rebuild":
			rebuilds = append(rebuilds, s)
			if v, ok := s.Attr("rounds_to_best").(int); ok {
				toBest = append(toBest, float64(v))
			}
			if v, ok := s.Attr("warmstart_priors").(int); ok && v > 0 {
				warm++
			}
			continue
		case "core.candidate":
			candMS = append(candMS, s.DurationMS)
			busy += s.DurationMS
			if s.Outcome == obs.OutcomeDiverged {
				diverged++
			}
		case "core.materialize_best":
			materialize += s.DurationMS
		case "bo.propose":
			propose += s.DurationMS
		case "bo.round":
			rounds++
		default:
			continue
		}
		children = append(children, s)
	}
	var total, self float64
	for _, r := range rebuilds {
		within := interval{r.Start, end(r)}
		var ivs []interval
		for _, c := range children {
			if c.Trace == r.Trace && c.Name != "bo.round" {
				ivs = append(ivs, interval{c.Start, end(c)})
			}
		}
		total += r.DurationMS
		self += r.DurationMS - ms(unionDuration(ivs, within))
	}
	nr := float64(len(rebuilds))
	res.layers["fleet.rebuild_ms"] = ratio(total, nr)
	res.layers["fleet.rebuild.self_ms"] = ratio(self, nr)
	res.layers["core.candidates"] = float64(len(candMS))
	res.layers["core.candidate_ms"] = median(candMS)
	res.layers["core.candidate_busy_ms"] = ratio(busy, nr)
	res.layers["core.materialize_ms"] = ratio(materialize, nr)
	res.layers["core.diverged"] = float64(diverged)
	res.layers["bo.rounds"] = float64(rounds)
	res.layers["bo.propose_ms"] = ratio(propose, nr)
	res.layers["profile.rounds_to_best"] = mean(toBest)
	res.layers["profile.warmstart_share"] = ratio(float64(warm), nr)
}
