// Package serve exposes a fleet of trained LoadDynamics models as an HTTP
// forecast service — the integration point an auto-scaler polls each
// interval. The handlers are stdlib net/http only, hardened for
// production: panics are recovered to JSON 500s, forecasts run under a
// per-request timeout, an in-flight limiter sheds excess load with 503s,
// and corrupt model output is replaced by a degraded last-value fallback
// instead of poisoning the auto-scaler.
//
// A server always routes into an internal/fleet registry (NewFleet): it
// serves per-workload requests, feeds observed arrivals to the fleet's
// online evaluator (closing the drift→rebuild loop), and sees every
// promotion — a background rebuild or an operator reload through the
// fleet — atomically. Serving one model is a one-workload fleet.
//
// Endpoints:
//
//	GET  /healthz                         liveness probe
//	GET  /v1/workloads                    per-workload health list
//	GET  /v1/workloads/{id}               one workload's health + transfer profile
//	POST /v1/workloads/{id}/forecast      {"history": [...], "steps": n} → {"forecasts": [...]}
//	POST /v1/workloads/{id}/observe       {"values": [...]} → rolling-error status
//	GET  /v1/workloads/{id}/model         model metadata + workload health
//	GET  /v1/workloads/{id}/timeline      flight-recorder causal event timeline
//	POST /v1/forecast:batch               many (workload, history, steps) forecasts in one call
//	POST /v1/observe:stream               multi-workload observation stream
//
// Every request is metered (per-route counters and latency histograms,
// per-status-code counters, an in-flight gauge and a degraded-fallback
// counter); Admin returns the operator-only mux exposing the
// snapshot at GET /debug/metrics (Prometheus 0.0.4 or OpenMetrics 1.0 via
// Accept negotiation), flight-recorder stats at GET /debug/flight, plus
// opt-in net/http/pprof.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/obs"
)

// MaxHistoryLen is the default bound on forecast request payloads (DoS
// hygiene); override per server with Options.MaxHistory.
const MaxHistoryLen = 100_000

// MaxSteps bounds the iterated forecast horizon per request.
const MaxSteps = 1000

// MaxObservationsLen is the default bound on one observe request's value
// count; override per server with Options.MaxObservations.
const MaxObservationsLen = 10_000

// Options tune the server's protective limits. The zero value gets
// production defaults.
type Options struct {
	// RequestTimeout bounds each forecast computation (default 10s). The
	// model honors it between forecast steps, so a 1000-step request on a
	// slow model cannot wedge a connection forever.
	RequestTimeout time.Duration
	// MaxInFlight is the number of concurrent forecast requests served
	// before the rest are shed with 503s (default 64). Shedding keeps tail
	// latency bounded when an auto-scaler fleet stampedes.
	MaxInFlight int
	// RetryAfterBase is the Retry-After hint attached to shed 503s under
	// light pressure (default 1s). The advertised delay scales with the
	// consecutive-shed streak — sustained shedding means the fleet of
	// clients must back off harder than a momentary spike.
	RetryAfterBase time.Duration
	// RetryAfterMax caps the pressure-scaled Retry-After hint (default
	// 30s), so a long overload cannot push clients into hour-long sleeps.
	RetryAfterMax time.Duration
	// MaxHistory caps the history length accepted by forecast requests
	// (default MaxHistoryLen); longer payloads are rejected with 400.
	MaxHistory int
	// MaxObservations caps the value count accepted by one observe request
	// (default MaxObservationsLen); larger batches are rejected with 400.
	MaxObservations int
	// MaxBodyBytes caps request body size via http.MaxBytesReader
	// (default 16 MiB).
	MaxBodyBytes int64
	// MaxBatch caps the entry count accepted by POST /v1/forecast:batch
	// (default 256); larger batches are rejected with 400.
	MaxBatch int
	// MaxStreamBytes caps one POST /v1/observe:stream request body via
	// http.MaxBytesReader (default 64 MiB — stream bodies legitimately
	// dwarf single-request bodies).
	MaxStreamBytes int64
	// ForecastCacheTTL, when positive, enables the TTL forecast cache:
	// identical (workload, model version, history window, steps) requests
	// inside the TTL are served from memory with singleflight on miss, and
	// promotions invalidate the workload's entries. Zero disables
	// caching (the default — correctness first, opt in for speed).
	ForecastCacheTTL time.Duration
	// ForecastCacheCap bounds the cache's entry count (default 4096 when
	// the cache is enabled); the least-recently-used entries are evicted
	// beyond it.
	ForecastCacheCap int
	// Metrics is the registry request metrics are reported to (default:
	// obs.Default, so one /debug/metrics snapshot covers the serving
	// layer, the fleet and any build telemetry recorded in this process).
	// Tests pass a private registry for isolation.
	Metrics *obs.Registry
	// Logger receives one structured request log line per request
	// (obs schema: component, route, workload, status, duration_ms,
	// request_id) plus server lifecycle events. Default: slog.Default().
	Logger *slog.Logger
	// Trace, when non-nil, records a serve.request span per request with
	// the request's correlation ID, so an X-Request-ID read off a
	// response joins the slog line and the exported trace record.
	Trace *obs.Trace
	// Flight, when non-nil, is the flight recorder trace IDs are minted
	// from: each request (and each streamed record batch) gets a causal
	// trace that follows the observation through the fleet's ingest, drift
	// and rebuild pipeline, readable at /v1/workloads/{id}/timeline. Nil
	// falls back to the fleet's own recorder (fleet.Options.Flight); with
	// neither, tracing is off and the ingest path stays allocation-free.
	Flight *obs.FlightRecorder
	// SLOLatencyP99 is the per-route latency objective: 99% of forecast
	// requests complete within this bound (default 2s).
	SLOLatencyP99 time.Duration
	// SLOErrorRate is the per-route availability objective: the allowed
	// fraction of 5xx responses (default 0.01).
	SLOErrorRate float64
	// SLODriftMAPE is the model-quality objective: a workload whose
	// rolling MAPE gauge sustains above this percentage burns its SLO
	// (default 50, matching the fleet's drift threshold).
	SLODriftMAPE float64
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.RetryAfterBase <= 0 {
		o.RetryAfterBase = time.Second
	}
	if o.RetryAfterMax <= 0 {
		o.RetryAfterMax = 30 * time.Second
	}
	if o.RetryAfterMax < o.RetryAfterBase {
		o.RetryAfterMax = o.RetryAfterBase
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = MaxHistoryLen
	}
	if o.MaxObservations <= 0 {
		o.MaxObservations = MaxObservationsLen
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxStreamBytes <= 0 {
		o.MaxStreamBytes = 64 << 20
	}
	if o.ForecastCacheTTL > 0 && o.ForecastCacheCap <= 0 {
		o.ForecastCacheCap = 4096
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.SLOLatencyP99 <= 0 {
		o.SLOLatencyP99 = 2 * time.Second
	}
	if o.SLOErrorRate <= 0 || o.SLOErrorRate >= 1 {
		o.SLOErrorRate = 0.01
	}
	if o.SLODriftMAPE <= 0 {
		o.SLODriftMAPE = 50
	}
	return o
}

// Server routes HTTP requests into a workload fleet.
type Server struct {
	opts     Options
	fleet    *fleet.Fleet
	flight   *obs.FlightRecorder
	mux      *http.ServeMux
	inflight chan struct{}
	// shedStreak counts consecutive shed requests since the last
	// successful slot acquisition; it scales the Retry-After hint so
	// clients back off in proportion to how hard the server is shedding.
	shedStreak atomic.Int64
	// ingestStreak is the stream-ingest equivalent: consecutive 429s on
	// /v1/observe:stream since the last fully admitted stream. Kept
	// separate from shedStreak — forecast capacity and ingest-queue
	// pressure are different bottlenecks with different recovery times.
	ingestStreak atomic.Int64
	m            serveMetrics
	log          *slog.Logger
	slo          *obs.SLOEngine
	// cache is the TTL forecast cache (nil when disabled). Keys carry the
	// fleet's promotion version and promotions invalidate via OnPromote, so
	// a stale forecast can never be served after a promotion.
	cache *fleet.ForecastCache
	// predict computes one forecast and predictBatch a fused multi-entry
	// batch; tests substitute them to exercise the degraded, timeout,
	// shedding and cache paths without a pathological model.
	predict      func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error)
	predictBatch func(ctx context.Context, m *core.Model, histories [][]float64, steps []int) ([][]float64, error)
}

// routeMetrics is the cached per-route handle set — looked up once at
// construction so the request path costs a few atomics plus one
// histogram observation, not a registry lookup. errors counts 5xx
// responses; together with requests it feeds the route's availability
// SLO.
type routeMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// serveMetrics caches every handle the handlers touch.
type serveMetrics struct {
	reg            *obs.Registry
	routes         map[string]routeMetrics
	inflight       *obs.Gauge
	degraded       *obs.Counter
	streamAccepted *obs.Counter
	streamRejected *obs.Counter
	streamShed     *obs.Counter
}

// serveRoutes are the fixed-path route labels; the per-workload patterns are
// classified by routeLabel, and unknown paths share "other" so a scanner
// cannot inflate the registry with junk names.
var serveRoutes = map[string]string{
	"/healthz":           "healthz",
	"/v1/forecast:batch": "forecast_batch",
	"/v1/observe:stream": "observe_stream",
	"/v1/workloads":      "workloads",
}

// workloadRoutes label the /v1/workloads/{id}/... patterns by suffix.
var workloadRoutes = map[string]string{
	"forecast": "workload_forecast",
	"observe":  "workload_observe",
	"model":    "workload_model",
	"timeline": "workload_timeline",
}

// routeLabel maps a request path to its metric label.
func routeLabel(path string) string {
	if name, ok := serveRoutes[path]; ok {
		return name
	}
	if rest, ok := strings.CutPrefix(path, "/v1/workloads/"); ok {
		if i := strings.LastIndexByte(rest, '/'); i >= 0 {
			if name, ok := workloadRoutes[rest[i+1:]]; ok {
				return name
			}
		} else if rest != "" {
			// Bare /v1/workloads/{id}: the per-workload status view.
			return "workload_status"
		}
	}
	return "other"
}

func newServeMetrics(reg *obs.Registry) serveMetrics {
	m := serveMetrics{
		reg:            reg,
		routes:         make(map[string]routeMetrics, len(serveRoutes)+len(workloadRoutes)+1),
		inflight:       reg.Gauge("serve.inflight"),
		degraded:       reg.Counter("serve.degraded"),
		streamAccepted: reg.Counter("serve.stream.accepted"),
		streamRejected: reg.Counter("serve.stream.rejected"),
		streamShed:     reg.Counter("serve.stream.shed"),
	}
	names := []string{"other", "workload_status"}
	for _, name := range serveRoutes {
		names = append(names, name)
	}
	for _, name := range workloadRoutes {
		names = append(names, name)
	}
	for _, name := range names {
		m.routes[name] = routeMetrics{
			requests: reg.Counter("serve.requests." + name),
			errors:   reg.Counter("serve.errors." + name),
			latency:  reg.Histogram("serve.latency_seconds." + name),
		}
	}
	return m
}

func (m serveMetrics) route(path string) routeMetrics {
	return m.routes[routeLabel(path)]
}

// statusWriter captures the response status code for the status-class
// counters (200 when the handler never calls WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// NewFleet returns a server routing into an existing (non-empty) fleet —
// the only way to build one. The caller owns the fleet's lifecycle: Start
// its rebuild workers to enable drift-triggered self-rebuilds, StartIngest
// its stream-ingest workers so POST /v1/observe:stream drains (an unstarted
// fleet accepts streams only until its shard queues fill, then answers
// 429), reload models through the fleet (Promote, ReloadWorkload), and
// Close it on shutdown.
func NewFleet(fl *fleet.Fleet, opts Options) (*Server, error) {
	if fl == nil {
		return nil, fmt.Errorf("serve: nil fleet")
	}
	ids := fl.IDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("serve: fleet has no workloads")
	}
	opts = opts.withDefaults()
	flight := opts.Flight
	if flight == nil {
		flight = fl.Flight()
	}
	s := &Server{
		opts:     opts,
		fleet:    fl,
		flight:   flight,
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, opts.MaxInFlight),
		m:        newServeMetrics(opts.Metrics),
		log:      opts.Logger.With(obs.LogComponent, "serve"),
		slo:      newServeSLO(opts, ids),
		cache:    fleet.NewForecastCache(opts.ForecastCacheTTL, opts.ForecastCacheCap, opts.Metrics),
		predict: func(ctx context.Context, m *core.Model, history []float64, steps int) ([]float64, error) {
			return m.PredictStepsContext(ctx, history, steps)
		},
		predictBatch: func(ctx context.Context, m *core.Model, histories [][]float64, steps []int) ([][]float64, error) {
			return m.PredictStepsBatch(ctx, histories, steps)
		},
	}
	if s.cache != nil {
		fl.OnPromote(s.cache.InvalidateWorkload)
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/forecast:batch", s.handleForecastBatch)
	s.mux.HandleFunc("/v1/observe:stream", s.handleObserveStream)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/v1/workloads/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.handleWorkloadStatus(w, r, r.PathValue("id"))
	})
	s.mux.HandleFunc("/v1/workloads/{id}/forecast", func(w http.ResponseWriter, r *http.Request) {
		s.handleForecast(w, r, r.PathValue("id"))
	})
	s.mux.HandleFunc("/v1/workloads/{id}/observe", func(w http.ResponseWriter, r *http.Request) {
		s.handleObserve(w, r, r.PathValue("id"))
	})
	s.mux.HandleFunc("/v1/workloads/{id}/model", func(w http.ResponseWriter, r *http.Request) {
		s.handleModel(w, r, r.PathValue("id"))
	})
	s.mux.HandleFunc("/v1/workloads/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		s.handleTimeline(w, r, r.PathValue("id"))
	})
	return s, nil
}

// sloRoutes are the routes that carry availability and latency
// objectives — the forecast paths an auto-scaler's scaling decision
// blocks on.
var sloRoutes = []string{"forecast_batch", "workload_forecast", "observe_stream"}

// newServeSLO builds the server's SLO engine: per-route p99-latency and
// 5xx-error-rate objectives over the serve.* metrics, plus one
// model-quality objective per fleet workload over its rolling-MAPE
// gauge, so a drifting model alerts through the same burn-rate path as
// a latency regression.
func newServeSLO(opts Options, workloadIDs []string) *obs.SLOEngine {
	e := obs.NewSLOEngine(opts.Metrics, obs.SLOOptions{})
	for _, route := range sloRoutes {
		// Objectives over pre-registered metric names cannot fail
		// validation; a failure here would be a programming error.
		_ = e.AddObjective(obs.SLOObjective{
			Name: "availability:" + route, Kind: obs.SLOErrorRate,
			Total: "serve.requests." + route, Errors: "serve.errors." + route,
			Threshold: opts.SLOErrorRate,
		})
		_ = e.AddObjective(obs.SLOObjective{
			Name: "latency:" + route, Kind: obs.SLOLatency,
			Histogram: "serve.latency_seconds." + route,
			Quantile:  0.99, Threshold: opts.SLOLatencyP99.Seconds(),
		})
	}
	for _, id := range workloadIDs {
		_ = e.AddGaugeObjective("drift:"+id, "fleet.rolling_mape_pct."+id, opts.SLODriftMAPE)
	}
	return e
}

// Fleet returns the workload registry the server routes into.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// SLO returns the server's burn-rate engine for direct sampling — tests
// drive it with synthetic clocks, and StartTelemetry runs it on a ticker.
func (s *Server) SLO() *obs.SLOEngine { return s.slo }

// StartTelemetry starts the background collectors the admin endpoints
// read from: the runtime collector (goroutines, heap, GC pauses) and the
// SLO engine's sampling loop. Both stop when ctx is cancelled. interval
// <= 0 uses each collector's default cadence.
func (s *Server) StartTelemetry(ctx context.Context, interval time.Duration) {
	rc := obs.NewRuntimeCollector(s.m.reg)
	go rc.Run(ctx, interval)
	go s.slo.Run(ctx, interval)
	s.log.Info("telemetry started", "interval", interval.String())
}

// Admin returns the operator-only handler:
//
//	GET /debug/metrics            JSON snapshot of the metrics registry
//	GET /debug/metrics?format=prometheus  text exposition of the same
//	GET /metrics                  alias for the text exposition
//	GET /debug/slo                burn-rate state of every SLO objective
//	GET /debug/health             200 ok / 503 when a page-severity burn fires
//	GET /debug/flight             flight-recorder stats (?workload=id → events)
//
// The text exposition defaults to Prometheus 0.0.4 and upgrades to
// OpenMetrics 1.0 — exemplars included — when the scraper negotiates it
// (Accept: application/openmetrics-text, or ?format=openmetrics).
//
// enablePprof additionally mounts net/http/pprof under /debug/pprof/. Bind
// the admin mux to a loopback or otherwise access-controlled listener —
// pprof and metrics leak operational detail and must never share the
// public forecast port.
func (s *Server) Admin(enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	metrics := func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		format := r.URL.Query().Get("format")
		// An OpenMetrics Accept header upgrades /debug/metrics from its
		// JSON default just like ?format=openmetrics does — scrapers
		// negotiate by header, humans by query parameter.
		wantsText := format == "prometheus" || format == "openmetrics" ||
			r.URL.Path == "/metrics" || obs.AcceptsOpenMetrics(r.Header.Get("Accept"))
		if wantsText {
			// Content negotiation: OpenMetrics 1.0 (exemplars, `# EOF`) when
			// the scraper asks for it by Accept header or ?format=openmetrics;
			// Prometheus 0.0.4 otherwise. ?format=prometheus pins 0.0.4
			// regardless of Accept, so operators can force the legacy form.
			if format != "prometheus" &&
				(format == "openmetrics" || obs.AcceptsOpenMetrics(r.Header.Get("Accept"))) {
				w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
				_ = s.m.reg.WriteOpenMetrics(w)
				return
			}
			w.Header().Set("Content-Type", obs.ContentTypePrometheus)
			_ = s.m.reg.WritePrometheus(w)
			return
		}
		writeJSON(w, http.StatusOK, s.m.reg.Snapshot())
	}
	mux.HandleFunc("/debug/metrics", metrics)
	mux.HandleFunc("/metrics", metrics)
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		if id := r.URL.Query().Get("workload"); id != "" {
			events := s.flight.Events(id)
			if events == nil {
				events = []obs.FlightEvent{}
			}
			writeJSON(w, http.StatusOK, TimelineResponse{
				Workload: id, Enabled: s.flight.Enabled(), Events: events,
			})
			return
		}
		writeJSON(w, http.StatusOK, s.flight.Stats())
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, s.slo.Status())
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		if firing := s.slo.Firing(); len(firing) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "failing", "firing": firing,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// traceIDKey carries the request's minted flight trace ID through the
// request context to the observe handlers.
type traceIDKey struct{}

// requestTrace reads the trace ID ServeHTTP minted for this request (0
// when the flight recorder is off).
func requestTrace(r *http.Request) uint64 {
	id, _ := r.Context().Value(traceIDKey{}).(uint64)
	return id
}

// requestWorkload names the workload a request path targets: the {id}
// segment for per-workload routes, empty for everything else. Used only as
// a log/span attribute, so an unparseable path degrades to "".
func requestWorkload(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/workloads/"); ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			return rest[:i]
		}
	}
	return ""
}

// ServeHTTP implements http.Handler with panic recovery and request
// metering: a panicking handler produces a JSON 500 instead of killing the
// connection (and, for handlers run without net/http's own recovery, the
// process), and every request — including recovered panics — lands in the
// per-route request counter, the per-status-code counter and the per-route
// latency histogram, with 5xx responses feeding the route's error-rate SLO.
//
// Each request carries a correlation ID: an X-Request-ID supplied by the
// caller is honored (if well-formed), otherwise one is minted; either way
// it is echoed in the response header, stamped on the request's slog line,
// and — when tracing is enabled — recorded on the serve.request span, so
// one ID joins the access log and the exported trace.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeLabel(r.URL.Path)
	rm := s.m.routes[route]
	rm.requests.Inc()
	reqID := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(reqID) {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	workload := requestWorkload(r.URL.Path)
	// With the flight recorder on, every request mints a causal trace ID:
	// the observe handlers thread it into the fleet (so the resulting
	// drift/rebuild chain inherits it) and the latency histogram keeps it
	// as an OpenMetrics exemplar. One atomic add per request; zero cost
	// when recording is off (traceID stays 0 and nothing allocates).
	var traceID uint64
	if s.flight.Enabled() {
		traceID = s.flight.NewTrace()
		r = r.WithContext(context.WithValue(r.Context(), traceIDKey{}, traceID))
	}
	span := s.opts.Trace.Start("serve.request").
		SetTrace(traceID).
		SetAttr(obs.LogRequestID, reqID).
		SetAttr(obs.LogRoute, route)
	if workload != "" {
		span.SetAttr(obs.LogWorkload, workload)
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			httpError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
		}
		elapsed := time.Since(start)
		rm.latency.ObserveExemplar(elapsed.Seconds(), traceID)
		s.m.reg.Counter("serve.status." + strconv.Itoa(sw.code)).Inc()
		level := slog.LevelInfo
		outcome := obs.OutcomeOK
		if sw.code >= 500 {
			rm.errors.Inc()
			level = slog.LevelError
			outcome = "error"
		}
		span.SetAttr(obs.LogStatus, sw.code).EndOutcome(outcome)
		s.log.Log(r.Context(), level, "request",
			obs.LogRoute, route,
			obs.LogWorkload, workload,
			obs.LogStatus, sw.code,
			obs.LogDurationMS, float64(elapsed)/float64(time.Millisecond),
			obs.LogRequestID, reqID,
		)
	}()
	s.mux.ServeHTTP(sw, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// workloadModel resolves a workload ID to its model, writing the error
// response (400 invalid ID, 404 unknown, 503 unloadable snapshot) itself.
func (s *Server) workloadModel(w http.ResponseWriter, id string) (*core.Model, bool) {
	m, _, ok := s.workloadModelVersion(w, id)
	return m, ok
}

// workloadModelVersion is workloadModel plus the fleet's promotion version —
// the forecast handlers use it so cache keys carry the version the model was
// read under.
func (s *Server) workloadModelVersion(w http.ResponseWriter, id string) (*core.Model, int64, bool) {
	if err := fleet.ValidateID(id); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, 0, false
	}
	m, v, err := s.fleet.ModelWithVersion(id)
	switch {
	case errors.Is(err, fleet.ErrUnknownWorkload):
		httpError(w, http.StatusNotFound, err.Error())
		return nil, 0, false
	case err != nil:
		// Registered but unloadable (e.g. a corrupt snapshot after
		// eviction): a server-side condition, not a caller mistake.
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return nil, 0, false
	}
	return m, v, true
}

// ModelInfo is the model-metadata response body.
type ModelInfo struct {
	Hyperparams struct {
		HistoryLen int `json:"history_len"`
		CellSize   int `json:"cell_size"`
		Layers     int `json:"layers"`
		BatchSize  int `json:"batch_size"`
	} `json:"hyperparams"`
	ValidationMAPE float64 `json:"validation_mape"`
	NumWeights     int     `json:"num_weights"`
}

func modelInfo(m *core.Model) ModelInfo {
	var info ModelInfo
	info.Hyperparams.HistoryLen = m.HP.HistoryLen
	info.Hyperparams.CellSize = m.HP.CellSize
	info.Hyperparams.Layers = m.HP.Layers
	info.Hyperparams.BatchSize = m.HP.BatchSize
	info.ValidationMAPE = m.ValError
	info.NumWeights = m.NumParams()
	return info
}

// WorkloadModelInfo is the workload model response: the model metadata plus
// the workload's fleet health view.
type WorkloadModelInfo struct {
	ModelInfo
	Workload fleet.WorkloadStatus `json:"workload"`
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	m, ok := s.workloadModel(w, id)
	if !ok {
		return
	}
	st, _ := s.fleet.Status(id)
	writeJSON(w, http.StatusOK, WorkloadModelInfo{ModelInfo: modelInfo(m), Workload: st})
}

// WorkloadStatusResponse is the per-workload status body: the fleet
// health view plus the transfer-learning profile — the live workload
// fingerprint and how the most recent rebuild was seeded (which sibling
// workloads' tuned hyperparameters warm-started it, if any).
type WorkloadStatusResponse struct {
	Workload fleet.WorkloadStatus  `json:"workload"`
	Profile  fleet.WorkloadProfile `json:"profile"`
}

func (s *Server) handleWorkloadStatus(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st, err := s.fleet.Status(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	wp, err := s.fleet.Profile(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, WorkloadStatusResponse{Workload: st, Profile: wp})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	durability := "ok"
	if s.fleet.DurabilityDegraded() {
		durability = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"durability": durability,
		"workloads":  s.fleet.Statuses(),
	})
}

// ForecastRequest is the forecast request body. History must contain at
// least the model's history length of recent JARs (oldest first).
type ForecastRequest struct {
	History []float64 `json:"history"`
	Steps   int       `json:"steps"` // 0 or absent: 1 step
}

// ForecastResponse is the forecast response body. Degraded is set when
// the LSTM emitted non-finite values and the forecasts come from the naive
// last-value fallback instead — still actionable for an auto-scaler, unlike
// a 5xx or NaN.
type ForecastResponse struct {
	Forecasts []float64 `json:"forecasts"`
	Degraded  bool      `json:"degraded,omitempty"`
	Fallback  string    `json:"fallback,omitempty"`
	Reason    string    `json:"reason,omitempty"`
}

// acquireSlot reserves an in-flight forecast slot. When the server is at
// capacity it writes the 503 (with a pressure-derived Retry-After hint)
// and reports false — load shedding fails fast rather than queueing
// unboundedly. A successful acquisition resets the shed streak: the
// server is admitting work again, so new clients get the base hint.
func (s *Server) acquireSlot(w http.ResponseWriter) bool {
	select {
	case s.inflight <- struct{}{}:
		s.shedStreak.Store(0)
		s.m.inflight.Add(1)
		return true
	default:
		w.Header().Set("Retry-After", s.retryAfter(s.shedStreak.Add(1)))
		httpError(w, http.StatusServiceUnavailable, "server is at capacity, retry shortly")
		return false
	}
}

func (s *Server) releaseSlot() {
	s.m.inflight.Add(-1)
	<-s.inflight
}

// retryAfter converts the consecutive-shed streak into a Retry-After
// value in whole seconds: the configured base scaled linearly by the
// streak and clamped to [RetryAfterBase, RetryAfterMax]. One shed during
// a blip advertises the base; a stampede that sheds every request walks
// the hint up to the cap, spreading the retry herd out.
func (s *Server) retryAfter(streak int64) string {
	base, max := s.opts.RetryAfterBase, s.opts.RetryAfterMax
	d := base
	if streak > 1 {
		if scaled := time.Duration(streak) * base; scaled > base {
			d = scaled
		} else {
			d = max // streak*base overflowed
		}
	}
	if d > max {
		d = max
	}
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.acquireSlot(w) {
		return
	}
	defer s.releaseSlot()

	req := forecastReqPool.Get().(*ForecastRequest)
	defer forecastReqPool.Put(req)
	req.History, req.Steps = req.History[:0], 0
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err := dec.Decode(req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	steps, msg := s.checkForecastInput(req.History, req.Steps)
	if msg != "" {
		httpError(w, http.StatusBadRequest, msg)
		return
	}
	model, version, ok := s.workloadModelVersion(w, id)
	if !ok {
		return
	}
	if len(req.History) < model.HP.HistoryLen {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("history has %d values, model needs at least %d", len(req.History), model.HP.HistoryLen))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	// Only the last HistoryLen values influence the forecast, so the cache
	// keys on exactly that window — a client shipping a longer history
	// still hits.
	window := req.History[len(req.History)-model.HP.HistoryLen:]
	cf, hit, err := s.cache.Do(id, version, window, steps, func(prefix []float64) (fleet.CachedForecast, error) {
		return s.computeForecast(ctx, model, window, prefix, steps)
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			httpError(w, http.StatusGatewayTimeout, "forecast timed out")
			return
		}
		// The model is this handler's upstream: its failure is a 502, not a
		// 500, so operators can tell model trouble from handler bugs.
		httpError(w, http.StatusBadGateway, "model error: "+err.Error())
		return
	}
	if s.cache != nil {
		if hit {
			w.Header().Set("X-Forecast-Cache", "hit")
		} else {
			w.Header().Set("X-Forecast-Cache", "miss")
		}
	}
	// What was actually served (fallback and cache hits included) is what
	// later observed arrivals are scored against.
	s.fleet.RecordForecast(id, cf.Forecasts)
	writeJSON(w, http.StatusOK, ForecastResponse{
		Forecasts: cf.Forecasts,
		Degraded:  cf.Degraded,
		Fallback:  cf.Fallback,
		Reason:    cf.Reason,
	})
}

// checkForecastInput validates one forecast's (history, steps) pair against
// the server's limits, normalizing steps (0 means 1). It returns the
// normalized step count and an error message ("" when valid) — shared
// between the single and batch forecast handlers so both reject with
// identical wording.
func (s *Server) checkForecastInput(history []float64, steps int) (int, string) {
	if steps == 0 {
		steps = 1
	}
	if steps < 0 || steps > MaxSteps {
		return 0, fmt.Sprintf("steps must be 1..%d", MaxSteps)
	}
	if len(history) == 0 {
		return 0, "history is required"
	}
	if len(history) > s.opts.MaxHistory {
		return 0, fmt.Sprintf("history exceeds %d values", s.opts.MaxHistory)
	}
	for i, v := range history {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Sprintf("history[%d] is non-finite (%v)", i, v)
		}
		if v < 0 {
			return 0, fmt.Sprintf("history[%d] is negative (%v): job arrival rates are non-negative", i, v)
		}
	}
	return steps, ""
}

// computeForecast forecasts steps steps from window, continuing prefix —
// a cached healthy horizon for the same window, possibly empty — so the
// model runs only for the steps past it. The continuation forecasts from
// window ++ prefix: an iterated forecast reads only its last HistoryLen
// values, so the result is bit-identical to recomputing every step.
func (s *Server) computeForecast(ctx context.Context, model *core.Model, window, prefix []float64, steps int) (fleet.CachedForecast, error) {
	tail, err := s.predict(ctx, model, continuation(window, prefix), steps-len(prefix))
	if err != nil {
		return fleet.CachedForecast{}, err
	}
	return s.finishForecast(window, prefix, tail), nil
}

// continuation is the history a cached horizon prefix is continued from.
func continuation(window, prefix []float64) []float64 {
	if len(prefix) == 0 {
		return window
	}
	return append(append(make([]float64, 0, len(window)+len(prefix)), window...), prefix...)
}

// finishForecast serves prefix ++ tail and applies the degraded last-value
// fallback: a non-finite forecast would (best case) break the client's
// JSON decoding and (worst case) drive scaling decisions from garbage, so
// the naive last-value prediction is served instead, flagged so the
// auto-scaler knows it is flying on instruments. A cached prefix is always
// healthy, so only the tail needs checking. The fallback depends only on
// the window and the horizon, so degraded results are as cacheable as
// healthy ones.
func (s *Server) finishForecast(window, prefix, tail []float64) fleet.CachedForecast {
	steps := len(prefix) + len(tail)
	if !allFinite(tail) {
		s.m.degraded.Inc()
		return fleet.CachedForecast{
			Forecasts: lastValueForecast(window, steps),
			Degraded:  true,
			Fallback:  "last-value",
			Reason:    "model emitted non-finite forecast values",
		}
	}
	if len(prefix) == 0 {
		return fleet.CachedForecast{Forecasts: tail}
	}
	return fleet.CachedForecast{Forecasts: append(append(make([]float64, 0, steps), prefix...), tail...)}
}

// BatchForecastRequest is the POST /v1/forecast:batch request body: many
// forecasts in one round trip, so an auto-scaler polling a whole fleet pays
// one HTTP exchange instead of N.
type BatchForecastRequest struct {
	Entries []BatchForecastEntry `json:"entries"`
}

// BatchForecastEntry is one (workload, history, steps) forecast request.
type BatchForecastEntry struct {
	Workload string    `json:"workload"`
	History  []float64 `json:"history"`
	Steps    int       `json:"steps"` // 0 or absent: 1 step
}

// resetForDecode prepares a pooled request for decoding. encoding/json
// reuses slice elements within capacity without zeroing them, so every
// entry must be reset up to cap — otherwise a field absent from the next
// request (steps, history, workload) would silently inherit a prior
// request's value, leaking data across clients. Each History keeps its
// backing array (len 0) so decode stays allocation-free in steady state.
func (req *BatchForecastRequest) resetForDecode() {
	es := req.Entries[:cap(req.Entries)]
	for i := range es {
		es[i] = BatchForecastEntry{History: es[i].History[:0]}
	}
	req.Entries = es[:0]
}

// BatchForecastResponse carries one result per request entry, in order.
type BatchForecastResponse struct {
	Results []BatchForecastResult `json:"results"`
}

// BatchForecastResult is one entry's outcome: either Forecasts (with the
// same degraded-fallback semantics as the single endpoint) or Error. A
// batch with failing entries still answers 200 — per-entry validity is the
// entry's business, and partial results are actionable.
type BatchForecastResult struct {
	Workload  string    `json:"workload"`
	Forecasts []float64 `json:"forecasts,omitempty"`
	Degraded  bool      `json:"degraded,omitempty"`
	Fallback  string    `json:"fallback,omitempty"`
	Reason    string    `json:"reason,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// setForecast fills the result from a served forecast.
func (r *BatchForecastResult) setForecast(cf fleet.CachedForecast) {
	r.Forecasts, r.Degraded, r.Fallback, r.Reason = cf.Forecasts, cf.Degraded, cf.Fallback, cf.Reason
}

// handleForecastBatch serves POST /v1/forecast:batch. Entries are validated
// individually (failures land in the entry's Error field), consulted against
// the forecast cache, and the misses are grouped by model so every group
// runs as ONE fused multi-step batch inference (core.PredictStepsBatch); a
// miss with a shorter cached horizon runs only the steps past it, as in
// handleForecast. The per-row results are bit-identical to the
// single-forecast path, so clients may mix both endpoints freely.
func (s *Server) handleForecastBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// One batch occupies one in-flight slot: shedding bounds concurrent
	// model work, and a batch runs its model passes fused, not per entry.
	if !s.acquireSlot(w) {
		return
	}
	defer s.releaseSlot()

	req := batchReqPool.Get().(*BatchForecastRequest)
	defer batchReqPool.Put(req)
	req.resetForDecode()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err := dec.Decode(req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Entries) == 0 {
		httpError(w, http.StatusBadRequest, "entries is required")
		return
	}
	if len(req.Entries) > s.opts.MaxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch exceeds %d entries", s.opts.MaxBatch))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	type resolved struct {
		model   *core.Model
		version int64
		errMsg  string
	}
	models := make(map[string]resolved, len(req.Entries))
	results := make([]BatchForecastResult, len(req.Entries))
	stepsOf := make([]int, len(req.Entries))
	windows := make([][]float64, len(req.Entries))
	prefixes := make([][]float64, len(req.Entries))
	// groups collects cache-missing entry indices per distinct model.
	groups := make(map[*core.Model][]int)
	for i, e := range req.Entries {
		results[i].Workload = e.Workload
		steps, msg := s.checkForecastInput(e.History, e.Steps)
		if msg != "" {
			results[i].Error = msg
			continue
		}
		stepsOf[i] = steps
		res, seen := models[e.Workload]
		if !seen {
			if err := fleet.ValidateID(e.Workload); err != nil {
				res = resolved{errMsg: err.Error()}
			} else if m, v, err := s.fleet.ModelWithVersion(e.Workload); err != nil {
				res = resolved{errMsg: err.Error()}
			} else {
				res = resolved{model: m, version: v}
			}
			models[e.Workload] = res
		}
		if res.errMsg != "" {
			results[i].Error = res.errMsg
			continue
		}
		if len(e.History) < res.model.HP.HistoryLen {
			results[i].Error = fmt.Sprintf("history has %d values, model needs at least %d",
				len(e.History), res.model.HP.HistoryLen)
			continue
		}
		windows[i] = e.History[len(e.History)-res.model.HP.HistoryLen:]
		cf, prefix, hit := s.cache.Get(e.Workload, res.version, windows[i], steps)
		if hit {
			results[i].setForecast(cf)
			continue
		}
		prefixes[i] = prefix
		groups[res.model] = append(groups[res.model], i)
	}

	for model, idxs := range groups {
		histories := make([][]float64, len(idxs))
		steps := make([]int, len(idxs))
		for k, i := range idxs {
			histories[k] = continuation(windows[i], prefixes[i])
			steps[k] = stepsOf[i] - len(prefixes[i])
		}
		outs, err := s.predictBatch(ctx, model, histories, steps)
		if err != nil {
			// A deadline is recorded per entry like any other model error:
			// failing the whole batch with 504 would discard cache hits and
			// results already computed for other groups, breaking the
			// partial-results contract.
			msg := "model error: " + err.Error()
			if errors.Is(err, context.DeadlineExceeded) {
				msg = "forecast timed out"
			}
			for _, i := range idxs {
				results[i].Error = msg
			}
			continue
		}
		for k, i := range idxs {
			cf := s.finishForecast(windows[i], prefixes[i], outs[k])
			e := req.Entries[i]
			s.cache.Put(e.Workload, models[e.Workload].version, windows[i], cf)
			results[i].setForecast(cf)
		}
	}

	// Every served horizon (cache hits included) feeds the evaluator, same
	// as the single endpoint.
	for i := range results {
		if results[i].Error == "" && len(results[i].Forecasts) > 0 {
			s.fleet.RecordForecast(results[i].Workload, results[i].Forecasts)
		}
	}
	writeJSON(w, http.StatusOK, BatchForecastResponse{Results: results})
}

// ObserveRequest is the observe request body: arrivals observed since the
// last report, oldest first.
type ObserveRequest struct {
	Values []float64 `json:"values"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if err := fleet.ValidateID(id); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req ObserveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Values) == 0 {
		httpError(w, http.StatusBadRequest, "values is required")
		return
	}
	if len(req.Values) > s.opts.MaxObservations {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("values exceeds %d observations", s.opts.MaxObservations))
		return
	}
	// The minted trace and the request's correlation ID ride into the
	// fleet so the flight recorder can chain this batch's drift verdict
	// and any rebuild it triggers back to this HTTP request.
	st, err := s.fleet.ObserveCtx(id, req.Values, obs.TraceCtx{
		Trace:     requestTrace(r),
		RequestID: w.Header().Get("X-Request-ID"),
	})
	switch {
	case errors.Is(err, fleet.ErrUnknownWorkload):
		httpError(w, http.StatusNotFound, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// When the observation WAL has failed, the write was accepted
	// memory-only: it will not survive a restart. Surface that on the
	// response so a pipeline that needs durability can alert, without
	// failing the ingest itself.
	if s.fleet.DurabilityDegraded() {
		w.Header().Set("X-Durability", "degraded")
	}
	writeJSON(w, http.StatusOK, st)
}

// TimelineResponse is the GET /v1/workloads/{id}/timeline body: the
// workload's flight-recorder events, oldest first. Enabled false means no
// recorder is configured (events always empty then); an enabled recorder
// with no events yet returns an empty list, not an error.
type TimelineResponse struct {
	Workload string            `json:"workload"`
	Enabled  bool              `json:"enabled"`
	Events   []obs.FlightEvent `json:"events"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if err := fleet.ValidateID(id); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, err := s.fleet.Status(id); err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	events := s.flight.Events(id)
	if events == nil {
		events = []obs.FlightEvent{}
	}
	writeJSON(w, http.StatusOK, TimelineResponse{
		Workload: id,
		Enabled:  s.flight.Enabled(),
		Events:   events,
	})
}

// lastValueForecast is the degraded-mode predictor: the last observed JAR
// repeated over the horizon — the strongest assumption-free forecast when
// the model cannot be trusted.
func lastValueForecast(history []float64, steps int) []float64 {
	last := history[len(history)-1]
	out := make([]float64, steps)
	for i := range out {
		out[i] = last
	}
	return out
}

func allFinite(values []float64) bool {
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Request/response buffer pools. encoding/json reuses the capacity of
// slices already present in the destination struct, so recycling request
// structs lets repeated forecast decodes run without growing fresh History
// backing arrays; the response side encodes into a pooled buffer (encoder
// included — it holds internal scratch) instead of allocating an encoder
// per request.
var (
	forecastReqPool = sync.Pool{New: func() any { return new(ForecastRequest) }}
	batchReqPool    = sync.Pool{New: func() any { return new(BatchForecastRequest) }}
	jsonBufPool     = sync.Pool{New: func() any {
		jb := &jsonBuffer{}
		jb.enc = json.NewEncoder(&jb.buf)
		return jb
	}}
)

type jsonBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuffer)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		// Unreachable for the server's own response types; fall back to
		// streaming so a caller-supplied value still gets a best effort.
		jsonBufPool.Put(jb)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(jb.buf.Bytes())
	jsonBufPool.Put(jb)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
