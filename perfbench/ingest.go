package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"loaddynamics/internal/serve"
)

// ingestFrame is the number of records in one /v1/observe:stream request.
const ingestFrame = 256

// ingestLedger accounts for every record sent: each is accepted, rejected
// per record, shed by backpressure, or lost to an error response.
type ingestLedger struct {
	sent, accepted, rejected, shed, errors int64
	rejects                                int64 // 429/503 responses
	bad                                    int64 // responses reporting more records than sent
	latencyUS, serviceUS                   []float64
	failures                               []string
}

// runIngest is the telemetry-ingest workload: an open-loop generator offers
// binary-framed observation batches to /v1/observe:stream at a fixed record
// rate, round-robin over the fleet, on at most two connections. Set-up
// replays a WAL of earlier telemetry.
func runIngest(cfg runConfig) (*runResult, error) {
	sz := cfg.size
	n := sz.ingestWorkloads
	requests := max(4, int(cfg.seconds*sz.ingestRate)/ingestFrame)
	records := requests * ingestFrame
	rounds := (records + n - 1) / n
	state, err := ensureState(cfg.root, stateSpec{workload: "telemetry", seed: cfg.seed, workloads: n, walValues: sz.ingestWALValues})
	if err != nil {
		return nil, err
	}
	// Each workload's live values continue the series its replayed
	// telemetry came from; bodies are encoded before timing.
	live := make([][]float64, n)
	for i := range live {
		live[i] = workloadSeries(cfg.seed, i, sz.ingestWALValues+rounds)[sz.ingestWALValues:]
	}
	bodies := make([][]byte, requests)
	for k := range bodies {
		var b []byte
		for j := 0; j < ingestFrame; j++ {
			r := k*ingestFrame + j
			b = serve.AppendStreamFrame(b, workloadID(r%n), live[r%n][r/n:r/n+1])
		}
		bodies[k] = b
	}

	res := newRunResult()
	var walDir string
	p, err := setups(cfg, res, func(dir string) (bootOptions, error) {
		if err := copyTree(state, dir); err != nil {
			return bootOptions{}, err
		}
		walDir = filepath.Join(dir, "wal")
		return bootOptions{dir: filepath.Join(dir, "models"), walDir: walDir}, nil
	})
	if err != nil {
		return nil, err
	}
	defer p.close()
	res.layers["fleet.loads"] = p.counter("fleet.loads")
	res.layers["wal.replay_krec_per_s"] = p.counter("fleet.wal.replayed") / p.open.Seconds() / 1000

	obs0 := p.counter("fleet.observations")
	applied0, chunks0 := p.counter("fleet.ingest.applied"), p.counter("fleet.ingest.chunks")
	wal0 := p.fleet.WALStats().Appended
	walBytes0 := dirBytes(walDir)
	flight0 := p.fleet.Flight().Stats()

	var led ingestLedger
	var mu sync.Mutex
	var late []float64
	ph := beginPhase(cfg.traced, p.fleet.IngestDepth)
	type job struct {
		k     int
		from  time.Time // latency runs from here
		slice *sync.WaitGroup
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(p.base)
			defer cl.close()
			for j := range jobs {
				sent := time.Now()
				code, resp, err := cl.do("POST", "/v1/observe:stream", serve.StreamBinaryContentType, bodies[j.k])
				done := time.Now()
				mu.Lock()
				led.latencyUS = append(led.latencyUS, us(done.Sub(j.from)))
				led.serviceUS = append(led.serviceUS, us(done.Sub(sent)))
				led.account(ingestFrame, code, resp, err)
				mu.Unlock()
				j.slice.Done()
			}
		}()
	}
	// One generator goroutine: within each one-second slice of the
	// schedule, request k is due k·(256/rate) after the slice's start and is
	// handed to whichever connection is free. Latency runs from the due
	// time, so a stall also shows in the requests queued behind it — or, when
	// the generator slept until the due time, from when that sleep returned:
	// a sleep on a shared VM overshoots by up to a millisecond, which is the
	// host's timer, not the program (gen.late_p99_ms reports it). Between
	// slices the generator waits for the slice's responses and the reference
	// probe runs; the last slice also waits for the ingest queues to drain.
	every := time.Duration(float64(time.Second) * ingestFrame / sz.ingestRate)
	perSlice := max(1, int(sz.ingestRate)/ingestFrame)
	var clock hostClock
	var drain time.Duration
	drained := true
	for lo := 0; lo < requests; lo += perSlice {
		hi := min(lo+perSlice, requests)
		clock.begin()
		var slice sync.WaitGroup
		start := time.Now().Add(time.Millisecond)
		for k := lo; k < hi; k++ {
			due := start.Add(time.Duration(k-lo) * every)
			from := due
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
				from = time.Now()
			}
			slice.Add(1)
			jobs <- job{k: k, from: from, slice: &slice}
			late = append(late, ms(time.Since(due)))
		}
		slice.Wait()
		if hi == requests {
			lastAck := time.Now()
			drained = p.fleet.FlushIngest(time.Minute)
			drain = time.Since(lastAck)
		}
		clock.end()
	}
	close(jobs)
	wg.Wait()
	ph.end()

	res.attempted = int64(records)
	res.failed = led.rejected + led.shed + led.errors + led.bad
	res.failures = led.failures
	if !drained {
		res.fail("ingest queues did not drain within a minute")
	}
	// The ledger must balance, and after the drain the evaluator and the
	// WAL must each hold exactly the accepted records.
	if !led.balanced() {
		res.fail("ledger: sent %d != accepted %d + rejected %d + shed %d + errors %d",
			led.sent, led.accepted, led.rejected, led.shed, led.errors)
	}
	if got := int64(p.counter("fleet.observations") - obs0); got != led.accepted {
		res.fail("fleet.observations grew by %d, accepted %d", got, led.accepted)
	}
	walRecords := p.fleet.WALStats().Appended - wal0
	if walRecords != led.accepted {
		res.fail("WAL appended %d records, accepted %d", walRecords, led.accepted)
	}

	ph.record(res, int64(requests))
	clock.record(res)
	// Open loop: the schedule, not the host's speed, sets the wall time,
	// and the latencies stay raw too: at this load they rose by a third
	// where the probe slowed by four fifths, so scaling overcorrected them.
	res.e2e["work_s"] = sum(clock.wall)
	latencies(res, led.latencyUS)
	flight1 := p.fleet.Flight().Stats()
	res.layers["serve.rejects"] = float64(led.rejects + led.rejected)
	res.layers["fleet.ingest.records_per_chunk"] = ratio(p.counter("fleet.ingest.applied")-applied0, p.counter("fleet.ingest.chunks")-chunks0)
	res.layers["fleet.ingest.depth_max"] = float64(ph.depthMax)
	res.layers["fleet.ingest.drain_ms"] = ms(drain)
	res.layers["wal.records"] = float64(walRecords)
	res.layers["wal.bytes_per_record"] = ratio(float64(dirBytes(walDir)-walBytes0), float64(walRecords))
	res.layers["obs.flight.recorded"] = float64(flight1.Recorded - flight0.Recorded)
	res.layers["obs.flight.sampled_out"] = float64(flight1.SampledOut - flight0.SampledOut)
	res.layers["gen.late_p99_ms"] = quantile(late, 0.99)
	if cfg.traced {
		service := median(led.serviceUS)
		res.layers["serve.stream_us"] = median(p.timer.samples("stream"))
		res.layers["net.stream_us"] = service - res.layers["serve.stream_us"]
		// Medians do not add: what the p50 latency holds beyond the p50
		// round trip, i.e. waiting for a free connection.
		res.layers["unaccounted.stream_us"] = 1000*res.e2e["latency_ms"] - service
	}
	res.note("records %d requests %d rate %.0f rec/s ingest_p50_ms %.4f ingest_p99_ms %.4f accepted %d rejected %d shed %d errors %d replayed %.0f",
		records, requests, sz.ingestRate, res.e2e["latency_ms"], res.layers["client.p99_ms"],
		led.accepted, led.rejected, led.shed, led.errors, p.counter("fleet.wal.replayed"))
	return res, nil
}

// account books one stream request of records records and its response.
// Each column has its own source: sent is what the generator handed over,
// accepted and rejected are what the server reported, errors are whole
// requests that failed, and shed is what a 429/503 left unread. A 200 that
// does not report every record is booked as reported, so the ledger stops
// balancing; a response that reports more records than were sent is a
// failed operation of its own.
func (l *ingestLedger) account(records int, code int, body []byte, err error) {
	l.sent += int64(records)
	fail := func(format string, args ...any) {
		if len(l.failures) < 10 {
			l.failures = append(l.failures, fmt.Sprintf(format, args...))
		}
	}
	var sr serve.StreamResponse
	if err == nil {
		err = json.Unmarshal(body, &sr)
	}
	reported := sr.Accepted + sr.Rejected
	if err == nil && (sr.Accepted < 0 || sr.Rejected < 0 || reported > records) {
		l.bad++
		fail("observe:stream: status %d reports %d accepted + %d rejected of %d records", code, sr.Accepted, sr.Rejected, records)
		return
	}
	switch {
	case err != nil:
		l.errors += int64(records)
		fail("observe:stream: %v", err)
	case code == 429 || code == 503:
		l.rejects++
		l.accepted += int64(sr.Accepted)
		l.rejected += int64(sr.Rejected)
		l.shed += int64(records - reported)
		fail("observe:stream: shed (status %d)", code)
	case code/100 != 2:
		l.errors += int64(records)
		fail("observe:stream: status %d", code)
	default:
		l.accepted += int64(sr.Accepted)
		l.rejected += int64(sr.Rejected)
		if reported != records {
			fail("observe:stream: response reports %d of %d records", reported, records)
		}
		if sr.Rejected > 0 {
			fail("observe:stream: %d records rejected", sr.Rejected)
		}
	}
}

// balanced reports whether every record sent is booked exactly once.
func (l *ingestLedger) balanced() bool {
	return l.sent == l.accepted+l.rejected+l.shed+l.errors
}
