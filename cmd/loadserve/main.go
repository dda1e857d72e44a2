// Command loadserve exposes trained LoadDynamics models as an HTTP
// forecast service — the endpoint an auto-scaler polls each interval. It
// always serves a fleet; the two modes differ only in where the fleet's
// workloads come from.
//
// One model — train and save a model first, then serve it as the
// workload "default" of a memory-only fleet:
//
//	loadctl evaluate -kind gl -interval 30 -save model.json
//	loadserve -model model.json -addr :8080
//
// A model directory — build one, then serve every workload in it:
//
//	loadctl fleet -kinds gl,wiki -interval 30 -out-dir models/
//	loadserve -models models/ -addr :8080 -rebuild-workers 1
//
// Both modes get online drift detection and background self-rebuild.
//
// Endpoints: GET /healthz, GET /v1/workloads, POST
// /v1/workloads/{id}/forecast ({"history": [...], "steps": n}), POST
// /v1/workloads/{id}/observe ({"values": [...]}), GET
// /v1/workloads/{id}/model, POST /v1/forecast:batch, POST
// /v1/observe:stream (high-throughput multi-workload observation ingest:
// NDJSON or binary-framed batches, drained through sharded bounded queues
// with 429 backpressure — see cmd/loadgen for the matching load
// generator). With -model the workload ID is "default", e.g. POST
// /v1/workloads/default/forecast.
//
// Operations:
//
//   - Observed arrivals posted to the observe endpoint are scored against
//     served forecasts; a workload whose rolling error drifts past
//     -drift-threshold (or
//     -drift-factor × its stored CV error) is rebuilt in the background
//     and the new model promoted only if its CV error improves.
//   - SIGHUP atomically reloads models from disk through the fleet: with
//     -model the file is re-read into "default", with -models every
//     workload re-reads its snapshot. Each reload is a promotion, so with
//     -models every workload is re-persisted, gets a new version (dropping
//     its cached forecasts) and is made resident in turn — under
//     -resident-cap the last workloads reloaded stay in memory. A workload
//     whose file fails to load keeps serving its old model.
//   - SIGINT/SIGTERM drain in-flight requests for up to -shutdown-grace
//     before exiting (fleet rebuild workers are cancelled first).
//   - Requests beyond -max-inflight concurrent forecasts are shed with 503
//     and Retry-After; forecasts exceeding -request-timeout return 504.
//   - Every request logs one structured line (-log-format json|text) with
//     a correlation ID echoed as X-Request-ID; -trace-out additionally
//     exports serve.request spans (JSONL) carrying the same IDs on exit.
//   - -admin-addr exposes the operator listener: GET /debug/metrics (JSON
//     snapshot), GET /metrics and /debug/metrics?format=prometheus
//     (Prometheus text exposition), GET /debug/slo (burn-rate state of the
//     latency/error/drift objectives) and GET /debug/health (503 while a
//     page-severity burn fires); -pprof additionally mounts
//     net/http/pprof there. Bind it to loopback.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/serve"
	"loaddynamics/internal/wal"
)

func main() {
	var (
		modelPath     = flag.String("model", "", "trained model file (from 'loadctl evaluate -save'); exactly one of -model/-models is required")
		modelsDir     = flag.String("models", "", "fleet model directory (from 'loadctl fleet'); exactly one of -model/-models is required")
		addr          = flag.String("addr", ":8080", "listen address")
		reqTimeout    = flag.Duration("request-timeout", 10*time.Second, "per-forecast computation budget")
		maxInFlight   = flag.Int("max-inflight", 64, "concurrent forecasts before 503 shedding")
		cacheTTL      = flag.Duration("forecast-cache-ttl", 0, "serve identical (workload, window, steps) forecasts from memory for this long (0 disables); promotions, reloads included, invalidate")
		cacheCap      = flag.Int("forecast-cache-cap", 4096, "forecast cache entries held before LRU eviction (with -forecast-cache-ttl > 0)")
		shutdownGrace = flag.Duration("shutdown-grace", 15*time.Second, "drain period for in-flight requests on SIGINT/SIGTERM")
		residentCap   = flag.Int("resident-cap", 0, "fleet models held in memory at once (0 = all); least-recently-used models are evicted to their snapshots")
		driftThresh   = flag.Float64("drift-threshold", 50, "rolling-MAPE percentage above which a workload is drifted")
		driftFactor   = flag.Float64("drift-factor", 3, "drift when rolling MAPE exceeds this multiple of the model's stored CV error")
		rebuildWork   = flag.Int("rebuild-workers", 1, "background rebuild worker pool size")
		rebuildBudget = flag.Duration("rebuild-budget", 0, "wall-clock budget per background rebuild (0 = unlimited); timed-out rebuilds checkpoint and resume")
		rebuildBack   = flag.Duration("rebuild-backoff", 30*time.Second, "base delay before retrying a failed workload rebuild; doubles per consecutive failure with jitter")
		warmStartK    = flag.Int("warm-start-k", 3, "fingerprint-nearest sibling workloads whose tuned hyperparameters seed each rebuild's search (<= 0 disables warm-starting)")
		walDir        = flag.String("wal-dir", "", "observation write-ahead log directory (requires -models); observations replay into evaluator state on restart. Empty disables the WAL")
		walFsync      = flag.String("wal-fsync", "always", "WAL fsync policy: \"always\" (every record), \"off\", or an interval like \"250ms\"")
		ingestShards  = flag.Int("ingest-shards", 8, "evaluator shards for streaming ingest; each owns a bounded queue and one drain worker")
		ingestQueue   = flag.Int("ingest-queue", 1024, "per-shard ingest queue depth; a full queue sheds /v1/observe:stream records with 429")
		maxStreamBody = flag.Int64("max-stream-bytes", 64<<20, "largest /v1/observe:stream request body accepted")
		retryAfter    = flag.Duration("retry-after", time.Second, "base Retry-After hint on shed 503s; scales with sustained shedding up to -retry-after-max")
		retryAfterMax = flag.Duration("retry-after-max", 30*time.Second, "cap on the pressure-scaled Retry-After hint")
		adminAddr     = flag.String("admin-addr", "", "operator listen address for /metrics, /debug/metrics, /debug/slo and /debug/health (e.g. 127.0.0.1:6060); empty disables. Keep it off the public port — bind to loopback or a firewalled interface")
		pprofEnabled  = flag.Bool("pprof", false, "also mount net/http/pprof on the -admin-addr mux")
		logLevel      = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat     = flag.String("log-format", "json", "log encoding: json or text")
		sloLatencyP99 = flag.Duration("slo-latency-p99", 2*time.Second, "latency objective: 99% of forecast requests complete within this bound")
		sloErrorRate  = flag.Float64("slo-error-rate", 0.01, "availability objective: allowed fraction of 5xx forecast responses")
		traceOut      = flag.String("trace-out", "", "write serve.request and fleet.rebuild spans (JSONL, with request IDs) to this file on exit")
		flightEvents  = flag.Int("flight-events", 256, "flight-recorder events kept per workload for GET /v1/workloads/{id}/timeline, an upper bound each ring grows to; about 106 heap bytes each (0 disables causal tracing)")
		flightSample  = flag.Int("flight-sample", 1, "tail-sample routine observe events: keep every Nth per workload (drift and rebuild events always record)")
	)
	flag.Parse()

	lg, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		slog.Error(err.Error())
		os.Exit(2)
	}
	slog.SetDefault(lg)
	fatal := func(msg string, args ...any) {
		lg.Error(msg, args...)
		os.Exit(1)
	}
	if (*modelPath == "") == (*modelsDir == "") {
		fatal("exactly one of -model or -models is required")
	}
	if *pprofEnabled && *adminAddr == "" {
		fatal("-pprof requires -admin-addr")
	}

	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace()
	}
	var flight *obs.FlightRecorder
	if *flightEvents > 0 {
		flight = obs.NewFlightRecorder(obs.FlightRecorderOptions{
			Cap:         *flightEvents,
			SampleEvery: *flightSample,
		})
	}
	syncPolicy, syncEvery, err := wal.ParseSyncPolicy(*walFsync)
	if err != nil {
		fatal(err.Error())
	}
	if *walDir != "" && *modelsDir == "" {
		fatal("-wal-dir requires -models")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fl, handler, err := startFleet(ctx, *modelPath, fleet.Options{
		Dir:            *modelsDir,
		ResidentCap:    *residentCap,
		DriftThreshold: *driftThresh,
		DriftFactor:    *driftFactor,
		RebuildWorkers: *rebuildWork,
		RebuildBudget:  *rebuildBudget,
		RebuildBackoff: *rebuildBack,
		WarmStartK:     warmStartKOption(*warmStartK),
		IngestShards:   *ingestShards,
		IngestQueue:    *ingestQueue,
		WAL: wal.Options{
			Dir:          *walDir,
			Sync:         syncPolicy,
			SyncInterval: syncEvery,
		},
		Logger: lg,
		Trace:  trace,
		Flight: flight,
	}, serve.Options{
		RequestTimeout:   *reqTimeout,
		MaxInFlight:      *maxInFlight,
		RetryAfterBase:   *retryAfter,
		RetryAfterMax:    *retryAfterMax,
		ForecastCacheTTL: *cacheTTL,
		ForecastCacheCap: *cacheCap,
		MaxStreamBytes:   *maxStreamBody,
		Logger:           lg,
		Trace:            trace,
		Flight:           flight,
		SLOLatencyP99:    *sloLatencyP99,
		SLOErrorRate:     *sloErrorRate,
		SLODriftMAPE:     *driftThresh,
	})
	if err != nil {
		fatal(err.Error())
	}
	lg.Info("serving fleet",
		obs.LogComponent, "loadserve",
		"workloads", fl.Len(), "model", *modelPath, "dir", *modelsDir, "addr", *addr, "ids", fl.IDs(),
		"wal_dir", *walDir, "wal_fsync", *walFsync)
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slowloris hygiene: bound every phase of a connection's lifecycle,
		// not just body reads and writes.
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	// Admin mux on its own listener: metrics, SLO state and optionally
	// pprof never share the public forecast port. The runtime collector and
	// SLO sampler only run when there is an admin listener to read them.
	if *adminAddr != "" {
		handler.StartTelemetry(ctx, 0)
		admin := &http.Server{
			Addr:              *adminAddr,
			Handler:           handler.Admin(*pprofEnabled),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			lg.Info("admin endpoint up",
				obs.LogComponent, "loadserve", "addr", *adminAddr, "pprof", *pprofEnabled)
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal("admin server failed", "error", err.Error())
			}
		}()
	}

	// SIGHUP → hot reload through the fleet; a workload whose file fails to
	// load keeps serving its old model.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := reload(fl, *modelPath); err != nil {
				lg.Warn("reload failed, keeping current model",
					obs.LogComponent, "loadserve", "error", err.Error())
				continue
			}
			lg.Info("models reloaded", obs.LogComponent, "loadserve", "workloads", fl.Len())
		}
	}()

	// SIGINT/SIGTERM → graceful shutdown: stop accepting, drain in-flight
	// requests for up to the grace period, then exit.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		fatal(err.Error())
	case <-ctx.Done():
		lg.Info("signal received, draining",
			obs.LogComponent, "loadserve", "grace", shutdownGrace.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal("shutdown failed", "error", err.Error())
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err.Error())
		}
		fl.Close()
		writeTrace(lg, trace, *traceOut)
		lg.Info("drained, exiting", obs.LogComponent, "loadserve")
	}
}

// modelWorkload is the workload ID -model serves its file under.
const modelWorkload = "default"

// startFleet opens the fleet loadserve serves, wraps it in the HTTP server
// and starts its rebuild and stream-ingest workers. With modelPath set,
// fopts.Dir is empty and the fleet is memory-only, holding the file's model
// as workload "default"; otherwise the fleet opens fopts.Dir. Either way the
// lifecycle is the same, and the caller Closes the returned fleet.
func startFleet(ctx context.Context, modelPath string, fopts fleet.Options, sopts serve.Options) (*fleet.Fleet, *serve.Server, error) {
	fl, err := fleet.Open(fopts)
	if err != nil {
		return nil, nil, err
	}
	if modelPath != "" {
		var m *core.Model
		if m, err = core.LoadFile(modelPath); err == nil {
			err = fl.Add(modelWorkload, m)
		} else {
			err = fmt.Errorf("loading %s: %w", modelPath, err)
		}
	} else if fl.Len() == 0 {
		err = fmt.Errorf("model directory %s has no workloads (run 'loadctl fleet' first)", fopts.Dir)
	}
	var srv *serve.Server
	if err == nil {
		srv, err = serve.NewFleet(fl, sopts)
	}
	if err != nil {
		fl.Close()
		return nil, nil, err
	}
	fl.Start(ctx)
	fl.StartIngest()
	return fl, srv, nil
}

// reload re-reads served models from disk and promotes them through the
// fleet, so each swap bumps the workload's version and invalidates its
// cached forecasts. With modelPath set the file is re-read into workload
// "default"; otherwise every workload reloads its own snapshot, even one
// whose file has not changed, and each promotion re-persists the snapshot
// and manifest and makes the workload resident (evicting others under
// ResidentCap). A workload whose file fails to load keeps serving its old
// model; the errors are joined.
func reload(fl *fleet.Fleet, modelPath string) error {
	if modelPath != "" {
		m, err := core.LoadFile(modelPath)
		if err != nil {
			return fmt.Errorf("reloading %s: %w", modelPath, err)
		}
		return fl.Promote(modelWorkload, m)
	}
	var errs []error
	for _, id := range fl.IDs() {
		if err := fl.ReloadWorkload(id); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// warmStartKOption maps the flag convention (<= 0 disables) onto
// fleet.Options.WarmStartK (0 means "use the default", negative disables).
func warmStartKOption(k int) int {
	if k <= 0 {
		return -1
	}
	return k
}

// newLogger builds the process logger from the -log-level/-log-format
// flags.
func newLogger(level, format string) (*slog.Logger, error) {
	lvl, err := obs.ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(os.Stderr, lvl, format)
}

// writeTrace exports the request/rebuild span trace on exit. A trace-write
// failure is reported but not fatal.
func writeTrace(lg *slog.Logger, tr *obs.Trace, path string) {
	if tr == nil || path == "" {
		return
	}
	if err := tr.WriteFile(path); err != nil {
		lg.Warn("writing trace file", obs.LogComponent, "loadserve", "error", err.Error())
		return
	}
	lg.Info("trace written",
		obs.LogComponent, "loadserve", "spans", tr.Len(), "path", path)
}
