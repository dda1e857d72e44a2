package fleet

// Sharded streaming ingest: the high-throughput observation path under
// POST /v1/observe:stream.
//
// Every workload hashes (FNV-1a) onto one of Options.IngestShards shards.
// A shard owns the eval lock for all of its workloads — the same mutex
// that used to live per-entry — plus a bounded ingest queue and one
// drain worker. EnqueueObserve validates and copies a record into the
// shard's queue without touching the eval lock at all; the worker drains
// up to IngestChunk queued records, takes the shard lock once, logs the
// whole run with one wal.Append (one fsync under SyncAlways instead of
// one per record), runs applyLocked — the same apply function a single
// Observe and startup replay use — on each record, and releases the
// lock. Hot workloads stop paying a lock acquisition plus a WAL fsync per
// observation; the per-workload WAL append-before-mutate ordering is
// preserved because both still happen under the same (now shard-wide)
// lock, in queue order.
//
// Backpressure is explicit: a full shard queue rejects the record with
// ErrIngestQueueFull — never blocks, never drops silently — and the
// serving layer translates that into 429 + Retry-After. Per-shard depth
// gauges (fleet.ingest.depth.shard<N>) expose where the pressure is.
//
// resetEval, Observe and RecordForecast (through commit), status reads,
// rebuild history copies and startup replay all serialize through the
// same shard lock, so a drift-reset can never interleave inside a
// streamed batch's WAL-append/mutate window (the lost-observation
// interleaving this design exists to prevent).

import (
	"errors"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loaddynamics/internal/obs"
	"loaddynamics/internal/wal"
)

// ErrIngestQueueFull is returned by EnqueueObserve when the workload's
// shard queue is at capacity. The record was not admitted; the caller
// should shed load (the HTTP layer maps this to 429 + Retry-After).
var ErrIngestQueueFull = errors.New("fleet: ingest queue full")

// ingestJob is one queued observation batch for one workload. values is
// an owned copy drawn from the fleet's buffer pool — the boxed pointer
// travels with the job so the shard worker can return it to the pool
// without re-boxing (which would cost one heap allocation per record).
type ingestJob struct {
	e      *entry
	values *[]float64
	// tc is the batch's trace context (flight recorder); the zero value
	// rides along for free when tracing is off — it is plain struct data
	// inside the job, never a heap allocation.
	tc obs.TraceCtx
}

// ingestResult carries one applied observe record's scoring outcome from
// applyLocked, under the shard lock, to noteIngest, after unlock.
type ingestResult struct {
	e             *entry
	st            Status
	wasDrift      bool
	enoughHistory bool
	valErr        float64
	tc            obs.TraceCtx
}

// evalShard is one slice of the fleet's evaluator state: the shared eval
// mutex for its workloads, the bounded ingest queue, and the drain
// worker's reusable scratch (owned exclusively by that worker).
type evalShard struct {
	mu      sync.Mutex
	queue   chan ingestJob
	pending atomic.Int64 // queued-but-unapplied jobs, drives depth
	depth   *obs.Gauge

	// Worker-private scratch, reused across chunks. Only the single drain
	// worker (or a test driving drainChunk directly, with the worker
	// stopped) touches these.
	jobs    []ingestJob
	recs    []wal.Record
	results []ingestResult
}

func newShards(n, queueCap int, reg *obs.Registry) []*evalShard {
	shards := make([]*evalShard, n)
	for i := range shards {
		shards[i] = &evalShard{
			queue: make(chan ingestJob, queueCap),
			depth: reg.Gauge("fleet.ingest.depth.shard" + strconv.Itoa(i)),
		}
	}
	return shards
}

// shardFor maps a workload ID onto its shard: FNV-1a over the ID bytes.
// The hash is stable across processes, so replay, live ingest and tests
// agree on placement.
func (f *Fleet) shardFor(id string) *evalShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return f.shards[h.Sum32()%uint32(len(f.shards))]
}

// valuePool recycles observation-value buffers between EnqueueObserve
// (which copies the caller's values in) and the shard worker (which
// returns the buffer after applying) — the allocation that would
// otherwise dominate the per-record ingest path.
var valuePool = sync.Pool{
	New: func() any {
		b := make([]float64, 0, 64)
		return &b
	},
}

// EnqueueObserve admits one observation batch for asynchronous ingest
// through the workload's shard queue. It validates exactly as Observe
// does, copies values (the caller may reuse its slice immediately), and
// never blocks: a full shard queue returns ErrIngestQueueFull. Apply
// order within a workload is queue order — the order observations
// arrived — and the WAL sees them in the same order. Call FlushIngest to
// wait for queued records to reach the evaluator (status reads are
// eventually consistent with enqueues by design).
func (f *Fleet) EnqueueObserve(id string, values []float64) error {
	return f.EnqueueObserveCtx(id, values, obs.TraceCtx{})
}

// EnqueueObserveCtx is EnqueueObserve with an explicit trace context: the
// serving layer mints one trace per stream frame batch and the flight
// recorder stitches the resulting observe → WAL → drift → rebuild chain
// together under that ID. A zero TraceCtx behaves exactly like
// EnqueueObserve; when the flight recorder is on and the caller supplied
// no trace, one is minted here so in-process callers still get chained
// timelines.
func (f *Fleet) EnqueueObserveCtx(id string, values []float64, tc obs.TraceCtx) error {
	e, tc, err := f.admitObserve(id, values, tc)
	if err != nil {
		return err
	}
	bp := valuePool.Get().(*[]float64)
	*bp = append((*bp)[:0], values...)
	sh := e.shard
	select {
	case sh.queue <- ingestJob{e: e, values: bp, tc: tc}:
		sh.depth.Set(sh.pending.Add(1))
		f.m.ingestEnqueued.Inc()
		return nil
	default:
		valuePool.Put(bp)
		f.m.ingestRejected.Inc()
		return ErrIngestQueueFull
	}
}

// StartIngest launches one drain worker per shard. Idempotent; workers
// stop when Close runs (after draining whatever is queued, so accepted
// records are never dropped by shutdown). A fleet that never starts
// ingest still accepts EnqueueObserve until its queues fill — useful for
// deterministic backpressure tests — but production callers should start
// workers before serving the stream endpoint.
func (f *Fleet) StartIngest() {
	if !f.ingestOn.CompareAndSwap(false, true) {
		return
	}
	f.ingestStop = make(chan struct{})
	for _, sh := range f.shards {
		f.ingestWG.Add(1)
		go func(sh *evalShard) {
			defer f.ingestWG.Done()
			for {
				select {
				case job := <-sh.queue:
					f.drainChunk(sh, job)
				case <-f.ingestStop:
					// Drain what was admitted before shutdown; new enqueues
					// racing Close may stay queued, but nothing accepted
					// before the stop signal is lost.
					for {
						select {
						case job := <-sh.queue:
							f.drainChunk(sh, job)
						default:
							return
						}
					}
				}
			}
		}(sh)
	}
}

// stopIngest stops the drain workers and waits for their final drain.
func (f *Fleet) stopIngest() {
	if !f.ingestOn.Load() {
		return
	}
	close(f.ingestStop)
	f.ingestWG.Wait()
}

// drainChunk processes first plus up to IngestChunk-1 more already-queued
// jobs as one unit: a single batched WAL append and a single shard-lock
// hold for the whole run.
func (f *Fleet) drainChunk(sh *evalShard, first ingestJob) {
	sh.jobs = append(sh.jobs[:0], first)
	for len(sh.jobs) < f.opts.IngestChunk {
		select {
		case job := <-sh.queue:
			sh.jobs = append(sh.jobs, job)
		default:
			goto gathered
		}
	}
gathered:
	f.applyChunk(sh)
}

// applyChunk is the locked heart of streaming ingest: WAL-append the
// whole chunk as one wal.Append, then run applyLocked on each record, all
// under one shard-lock hold. Metrics, drift notifications and rebuild
// enqueues run after unlock, exactly as ObserveCtx orders them.
func (f *Fleet) applyChunk(sh *evalShard) {
	sh.results = sh.results[:0]
	sh.recs = sh.recs[:0]
	for _, job := range sh.jobs {
		sh.recs = append(sh.recs, wal.Record{Kind: walKindObserve, Workload: job.e.id, Values: *job.values})
	}

	sh.mu.Lock()
	// WAL before mutate, same lock: per-workload record order in the log
	// equals evaluator mutation order, chunk boundaries included, so
	// crash replay reconstructs this exact state.
	f.walAppend(sh.jobs[0].tc, sh.recs...)
	for i, job := range sh.jobs {
		sh.results = append(sh.results, ingestResult{tc: job.tc})
		f.applyLocked(job.e, sh.recs[i], &sh.results[i])
	}
	sh.mu.Unlock()

	for i := range sh.results {
		f.noteIngest(&sh.results[i], true)
	}
	for i := range sh.jobs {
		valuePool.Put(sh.jobs[i].values)
		sh.jobs[i] = ingestJob{}
	}
	applied := int64(len(sh.jobs))
	sh.depth.Set(sh.pending.Add(-applied))
	f.m.ingestApplied.Add(applied)
	f.m.ingestChunks.Inc()
}

// FlushIngest blocks until every queued observation has been applied (or
// the timeout elapses, returning false). Tests and graceful drains use it
// to make the asynchronous ingest path deterministic.
func (f *Fleet) FlushIngest(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, sh := range f.shards {
			if sh.pending.Load() != 0 {
				idle = false
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// IngestDepth reports the total queued-but-unapplied observation batches
// across all shards.
func (f *Fleet) IngestDepth() int64 {
	var total int64
	for _, sh := range f.shards {
		total += sh.pending.Load()
	}
	return total
}
