// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It boots the real program in process (fleet.Open → serve.NewFleet → a
// loopback listener), drives one named workload over HTTP, checks every
// output, and prints each metric with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// handler timer, inference replays, span capture and MemStats sampling are
// on and the metrics are the per-layer ones.
//
//	bash perfbench/run.sh --workload autoscale-poll --seed 1 --seconds 24 --trace 0
//
// See perfbench/README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every workload reports (see README.md
// for what each one measures on each workload).
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"work_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"latency_ms", "ms"},
}

// layerDefs are the per-layer metrics of the traced run, grouped by the
// module they measure. A layer a workload does not exercise reports 0.
var layerDefs = []metricDef{
	{"serve.forecast_us", "us"},
	{"serve.batch_us", "us"},
	{"serve.observe_us", "us"},
	{"serve.stream_us", "us"},
	{"serve.status_us", "us"},
	{"net.forecast_us", "us"},
	{"net.stream_us", "us"},
	{"serve.rejects", "count"},
	{"fleet.open_ms", "ms"},
	{"fleet.warmup_ms", "ms"},
	{"fleet.loads", "count"},
	{"fleet.cache.hit_share", "ratio"},
	{"fleet.ingest.records_per_chunk", "count"},
	{"fleet.ingest.depth_max", "count"},
	{"fleet.ingest.drain_ms", "ms"},
	{"fleet.drift.detect_obs", "count"},
	{"fleet.rebuild_ms", "ms"},
	{"fleet.rebuild.self_ms", "ms"},
	{"core.predict_us", "us"},
	{"core.predict_batch_us", "us"},
	{"core.candidates", "count"},
	{"core.candidate_ms", "ms"},
	{"core.candidate_busy_ms", "ms"},
	{"core.materialize_ms", "ms"},
	{"core.diverged", "count"},
	{"bo.rounds", "count"},
	{"bo.propose_ms", "ms"},
	{"profile.rounds_to_best", "count"},
	{"profile.warmstart_share", "ratio"},
	{"onboard.build_ms", "ms"},
	{"wal.records", "count"},
	{"wal.bytes_per_record", "B"},
	{"wal.replay_krec_per_s", "1000/s"},
	{"obs.flight.recorded", "count"},
	{"obs.flight.sampled_out", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"gen.late_p99_ms", "ms"},
	{"host.probe_ms", "ms"},
	{"client.p90_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.batch_p50_ms", "ms"},
	{"loop.recover_s", "s"},
	{"quality.forecast_mape_pct", "%"},
	{"quality.post_shift_mape_pct", "%"},
	{"quality.promoted_share", "ratio"},
	{"unaccounted.setup_ms", "ms"},
	{"unaccounted.forecast_us", "us"},
	{"unaccounted.stream_us", "us"},
	{"unaccounted.recover_ms", "ms"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	root    string
	workDir string
	seed    int64
	seconds float64
	traced  bool
	size    sizes
}

// runResult is what a workload run produced.
type runResult struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	failures  []string
	info      []string // the workload's own figures, printed for readers
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*runResult, error){
	"autoscale-poll":   runPoll,
	"telemetry-ingest": runIngest,
	"regime-shift":     runShift,
}

func main() {
	var (
		root      = flag.String("root", ".", "checkout root (generated state lives under <root>/.bench_build)")
		workload  = flag.String("workload", "", "autoscale-poll, telemetry-ingest or regime-shift")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 8, "scales the timed phase's fixed amount of work")
		trace     = flag.Int("trace", 0, "1 turns on per-layer instrumentation and prints the per-layer metrics")
		gen       = flag.Bool("gen", false, "generate one piece of state and exit (used by the harness itself)")
		genFleet  = flag.Int("gen-workloads", 0, "with -gen: fleet size")
		genValues = flag.Int("gen-wal", 0, "with -gen: earlier telemetry values per workload")
	)
	flag.Parse()
	slog.SetDefault(discardLogger())
	if *gen {
		spec := stateSpec{workload: *workload, seed: *seed, workloads: *genFleet, walValues: *genValues}
		if err := generateState(*root, spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	cfg := runConfig{
		root:    *root,
		workDir: filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		size:    benchSizes,
	}
	env := newEnvironment()
	env.SpinBefore = spinProbe()
	res, err := run(cfg)
	os.RemoveAll(cfg.workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env.SpinAfter = spinProbe()
	if err := report(os.Stdout, *workload, cfg, env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the readable lines, then the result object as the last
// line. The traced run prints its own end-to-end figures too, so the
// difference from an untraced run of the same seed is the tracing overhead.
func report(w io.Writer, workload string, cfg runConfig, env environment, res *runResult) error {
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g (%s)\n", workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "env %s\n", envJSON)
	for _, d := range e2eDefs {
		fmt.Fprintf(w, "e2e %-28s %14.4f %s\n", d.name, res.e2e[d.name], d.unit)
	}
	if cfg.traced {
		for _, d := range layerDefs {
			fmt.Fprintf(w, "layer %-30s %14.4f %s\n", d.name, res.layers[d.name], d.unit)
		}
	}
	for _, line := range res.info {
		fmt.Fprintf(w, "info %s\n", line)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	defs := e2eDefs
	values := res.e2e
	if cfg.traced {
		defs, values = layerDefs, res.layers
	}
	out := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// setups boots the program cfg.size.setups times, each over its own fresh
// copy of the state made by prepare (copying is not timed), and keeps the
// last one. setup_s is the median set-up time in reference seconds: each
// boot is bracketed by reference probes and scaled like a hostClock slice.
// The layer figures of set-up are medians of the raw times.
func setups(cfg runConfig, res *runResult, prepare func(dir string) (bootOptions, error)) (*program, error) {
	var scaled, total, open, warm, onboard, rest []float64
	var p *program
	for k := 0; k < cfg.size.setups; k++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", k))
		o, err := prepare(dir)
		if err != nil {
			return nil, err
		}
		o.traced = cfg.traced
		runtime.GC()
		debug.FreeOSMemory()
		before := refProbe()
		p, err = boot(o)
		if err != nil {
			return nil, err
		}
		after := refProbe()
		scaled = append(scaled, p.setup.Seconds()*float64(2*probeNominal)/float64(before+after))
		total = append(total, p.setup.Seconds())
		open = append(open, ms(p.open))
		warm = append(warm, ms(p.warmup))
		onboard = append(onboard, ms(p.onboard))
		rest = append(rest, ms(p.setup-p.open-p.warmup-p.onboard))
		if k < cfg.size.setups-1 {
			p.close()
			p = nil
			os.RemoveAll(dir)
		}
	}
	res.e2e["setup_s"] = median(scaled)
	res.layers["fleet.open_ms"] = median(open)
	res.layers["fleet.warmup_ms"] = median(warm)
	res.layers["onboard.build_ms"] = median(onboard)
	res.layers["unaccounted.setup_ms"] = median(rest)
	res.note("setup raw_setup_s %.4f", median(total))
	return p, nil
}

// phase measures one timed phase's peak RSS and the Go runtime's allocation
// and GC counters (its wall and CPU time come from a hostClock); traced runs
// also sample the heap (and an optional queue depth) every 10 ms.
type phase struct {
	m0       runtime.MemStats
	maxRSS   int64
	m1       runtime.MemStats
	heapPeak uint64
	depthMax int64
	stop     chan struct{}
	done     chan struct{}
}

func beginPhase(traced bool, depth func() int64) *phase {
	runtime.GC()
	ph := &phase{}
	runtime.ReadMemStats(&ph.m0)
	if traced {
		ph.stop, ph.done = make(chan struct{}), make(chan struct{})
		go ph.sample(depth)
	}
	return ph
}

func (ph *phase) sample(depth func() int64) {
	defer close(ph.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-ph.stop:
			return
		case <-tick.C:
			runtime.ReadMemStats(&ms)
			ph.heapPeak = max(ph.heapPeak, ms.HeapAlloc)
			if depth != nil {
				ph.depthMax = max(ph.depthMax, depth())
			}
		}
	}
}

func (ph *phase) end() {
	ph.maxRSS = readUsage().maxRSS
	if ph.stop != nil {
		close(ph.stop)
		<-ph.done
	}
	runtime.ReadMemStats(&ph.m1)
}

// record fills max_rss_mb and the runtime layer metrics; ops is the number
// of client requests. Each workload sets work_s and cpu_s itself.
func (ph *phase) record(res *runResult, ops int64) {
	res.e2e["max_rss_mb"] = float64(ph.maxRSS) / (1 << 20)
	res.layers["runtime.allocs_per_op"] = ratio(float64(ph.m1.Mallocs-ph.m0.Mallocs), float64(ops))
	res.layers["runtime.bytes_per_op"] = ratio(float64(ph.m1.TotalAlloc-ph.m0.TotalAlloc), float64(ops))
	res.layers["runtime.gc_cycles"] = float64(ph.m1.NumGC - ph.m0.NumGC)
	res.layers["runtime.gc_pause_ms"] = float64(ph.m1.PauseTotalNs-ph.m0.PauseTotalNs) / 1e6
	res.layers["runtime.heap_peak_mb"] = float64(ph.heapPeak) / (1 << 20)
}

// hostClock splits a timed phase into slices — one poll interval, one
// regime shift, one second of the ingest schedule — with a reference probe
// before the first slice and after each one. A slice's scale is probeNominal over the mean of
// the two probes that bracket it, so its wall and CPU time can be stated in
// reference seconds: on a shared VM the host's speed drifts by a third
// within seconds, and the probe slows with it where the scaled figures do
// not.
type hostClock struct {
	t0     time.Time
	u0     usage
	wall   []float64 // seconds per slice
	cpu    []float64 // process CPU seconds per slice
	scale  []float64 // per slice
	probes []float64 // seconds; one more than the slices
}

func (h *hostClock) begin() {
	if len(h.probes) == 0 {
		h.probes = append(h.probes, refProbe().Seconds())
	}
	h.u0 = readUsage()
	h.t0 = time.Now()
}

// end closes the slice, probes the host and returns the slice's scale.
func (h *hostClock) end() float64 {
	wall := time.Since(h.t0)
	u := readUsage()
	before := h.probes[len(h.probes)-1]
	after := refProbe().Seconds()
	f := 2 * probeNominal.Seconds() / (before + after)
	h.probes = append(h.probes, after)
	h.wall = append(h.wall, wall.Seconds())
	h.cpu = append(h.cpu, (u.cpu - h.u0.cpu).Seconds())
	h.scale = append(h.scale, f)
	return f
}

// record sets work_s and cpu_s to the slices' scaled totals and notes the
// raw totals and the probe times.
func (h *hostClock) record(res *runResult) {
	var work, cpu float64
	for k, f := range h.scale {
		work += f * h.wall[k]
		cpu += f * h.cpu[k]
	}
	res.e2e["work_s"] = work
	res.e2e["cpu_s"] = cpu
	probes := append([]float64(nil), h.probes...)
	p50 := median(probes)
	res.layers["host.probe_ms"] = 1000 * p50
	res.note("host slices %d raw_work_s %.4f raw_cpu_s %.4f probe_p50_ms %.3f probe_min_ms %.3f probe_max_ms %.3f",
		len(h.wall), sum(h.wall), sum(h.cpu), 1000*p50, 1000*probes[0], 1000*probes[len(probes)-1])
}

// latencies fills latency_ms with the median of client samples in
// microseconds, and the p90 and p99 as layer figures: on a shared 2-vCPU VM
// the tail of a few thousand requests is set by the one or two GC marks or
// host stalls a run happens to contain and varied by a third between runs,
// too much to gate.
func latencies(res *runResult, samplesUS []float64) {
	xs := append([]float64(nil), samplesUS...)
	res.e2e["latency_ms"] = quantile(xs, 0.5) / 1000
	res.layers["client.p90_ms"] = quantile(xs, 0.9) / 1000
	res.layers["client.p99_ms"] = quantile(xs, 0.99) / 1000
}
