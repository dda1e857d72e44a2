package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/serve"
	"loaddynamics/internal/wal"
)

// program is one booted instance of the system under test: a fleet opened
// over a fresh copy of generated state, the serving handler behind a
// loopback listener, and — in a traced run — the handler timer and the span
// trace the fleet and its rebuilds record into.
type program struct {
	reg    *obs.Registry
	fleet  *fleet.Fleet
	timer  *handlerTimer // nil when untraced
	trace  *obs.Trace    // nil when untraced
	base   string        // http://127.0.0.1:<port>
	srv    *http.Server
	cancel context.CancelFunc

	setup   time.Duration // program start to the first timed request
	open    time.Duration // fleet.Open, WAL replay included
	onboard time.Duration // regime-shift onboarding builds
	warmup  time.Duration // one touch of every workload
}

type bootOptions struct {
	dir    string // fleet snapshot directory (a fresh copy)
	walDir string // "" disables the WAL
	cache  bool   // forecast cache on
	traced bool
	// minRebuildHistory is the observations a drifted workload needs before
	// it is rebuilt (0 = the fleet default).
	minRebuildHistory int
	// onboard runs between fleet.Open and serve.NewFleet; regime-shift
	// builds and registers its workloads there.
	onboard func(*fleet.Fleet) error
}

// boot brings the program up the way cmd/loadserve does: fleet.Open, the
// rebuild and ingest workers, serve.NewFleet and an HTTP server, with the
// flight recorder and JSON request logs at the loadserve defaults (logs
// discarded). It then touches every workload once so lazy snapshot loads
// are paid in set-up rather than in the first timed requests.
func boot(o bootOptions) (*program, error) {
	start := time.Now()
	p := &program{reg: obs.NewRegistry()}
	logger, err := obs.NewLogger(io.Discard, slog.LevelInfo, "json")
	if err != nil {
		return nil, err
	}
	flight := obs.NewFlightRecorder(obs.FlightRecorderOptions{Cap: 256, SampleEvery: 1})
	build := core.QuickConfig()
	if o.traced {
		p.trace = obs.NewTrace()
		build.Trace = p.trace
	}
	fo := fleet.Options{
		Dir:               o.dir,
		MinRebuildHistory: o.minRebuildHistory,
		Build:             build,
		Metrics:           p.reg,
		Trace:             p.trace,
		Flight:            flight,
		Logger:            logger,
	}
	if o.walDir != "" {
		fo.WAL = wal.Options{Dir: o.walDir, Sync: wal.SyncInterval, SyncInterval: 50 * time.Millisecond}
	}
	t := time.Now()
	fl, err := fleet.Open(fo)
	if err != nil {
		return nil, err
	}
	p.open = time.Since(t)
	p.fleet = fl
	if o.onboard != nil {
		t = time.Now()
		if err := o.onboard(fl); err != nil {
			fl.Close()
			return nil, err
		}
		p.onboard = time.Since(t)
	}
	so := serve.Options{Metrics: p.reg, Logger: logger, Flight: flight}
	if o.cache {
		so.ForecastCacheTTL = 30 * time.Second
	}
	server, err := serve.NewFleet(fl, so)
	if err != nil {
		fl.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	fl.Start(ctx)
	fl.StartIngest()

	var handler http.Handler = server
	if o.traced {
		p.timer = &handlerTimer{next: server, us: map[string][]float64{}}
		handler = p.timer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = &http.Server{
		Handler:           handler,
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	go p.srv.Serve(ln)

	t = time.Now()
	for _, id := range fl.IDs() {
		if _, err := fl.Model(id); err != nil {
			p.close()
			return nil, fmt.Errorf("warm-up touch of %s: %w", id, err)
		}
	}
	p.warmup = time.Since(t)
	p.setup = time.Since(start)
	return p, nil
}

// close stops the listener (waiting for in-flight handlers), then the fleet's
// rebuild and ingest workers.
func (p *program) close() {
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		p.srv.Shutdown(ctx)
		cancel()
	}
	if p.cancel != nil {
		p.cancel()
	}
	p.fleet.Close()
}

// counter reads one fleet/serve counter from the program's registry.
func (p *program) counter(name string) float64 {
	return float64(p.reg.Snapshot().Counters[name])
}

// handlerTimer wraps the server's ServeHTTP and records the time spent
// inside it per route, in microseconds — the serving layer's own share of
// each client-observed latency.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	us   map[string][]float64
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := us(time.Since(start))
	route := routeOf(r.URL.Path)
	t.mu.Lock()
	t.us[route] = append(t.us[route], d)
	t.mu.Unlock()
}

// samples returns a copy of one route's handler times.
func (t *handlerTimer) samples(route string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.us[route]...)
}

func routeOf(path string) string {
	switch {
	case path == "/v1/forecast:batch":
		return "batch"
	case path == "/v1/observe:stream":
		return "stream"
	case strings.HasSuffix(path, "/forecast"):
		return "forecast"
	case strings.HasSuffix(path, "/observe"):
		return "observe"
	default:
		return "status"
	}
}

// client is one keep-alive HTTP connection to the program.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, path, "application/json", body)
}

func (c *client) get(path string) (int, []byte, error) {
	return c.do(http.MethodGet, path, "", nil)
}

func (c *client) close() { c.tr.CloseIdleConnections() }
