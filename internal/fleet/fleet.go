// Package fleet manages many per-workload LoadDynamics models behind one
// serving process — the multi-tenant layer the paper's "generic" claim
// implies: every workload gets its own BO-tuned LSTM, and the fleet keeps
// each of them honest as traffic shifts.
//
// Three cooperating pieces:
//
//   - a concurrent model registry: per-workload *core.Model with atomic
//     promotion, snapshot persistence behind a versioned manifest, lazy
//     loading and LRU eviction under a configurable resident-model cap;
//   - an online evaluator: observed arrivals are scored against the
//     forecasts previously served (rolling-window MAPE/RMSE), and a
//     workload is flagged as drifted when its rolling error exceeds an
//     absolute threshold or a multiple of the model's stored
//     cross-validation error;
//   - a background rebuild queue: a bounded worker pool re-runs the
//     core.Build workflow for drifted workloads on their accumulated
//     observation history, then atomically promotes the new model only if
//     its cross-validation error improves on the incumbent's (otherwise
//     the old model keeps serving and a rejected promotion is recorded).
//
// Everything is stdlib-only and reports into internal/obs: registry
// hits/misses/evictions/promotions, per-workload rolling-error gauges, a
// drift counter, and fleet.rebuild spans with ok/rejected/failed/timeout
// outcomes.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/profile"
	"loaddynamics/internal/wal"
)

// ErrUnknownWorkload is returned for IDs the registry has never seen.
var ErrUnknownWorkload = errors.New("fleet: unknown workload")

// MaxIDLen bounds workload identifiers (they appear in URLs, metric names
// and snapshot file names).
const MaxIDLen = 64

// ValidateID enforces the workload-identifier charset: 1..MaxIDLen
// characters from [a-zA-Z0-9._-], not starting with a dot (snapshot files
// are named after the ID, and a leading dot would hide them or escape via
// "..").
func ValidateID(id string) error {
	if id == "" {
		return errors.New("fleet: empty workload id")
	}
	if len(id) > MaxIDLen {
		return fmt.Errorf("fleet: workload id longer than %d characters", MaxIDLen)
	}
	if id[0] == '.' {
		return fmt.Errorf("fleet: workload id %q must not start with '.'", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("fleet: workload id %q contains %q (allowed: letters, digits, '.', '_', '-')", id, c)
		}
	}
	return nil
}

// Options configure a Fleet. The zero value is a usable memory-only fleet
// with production defaults.
type Options struct {
	// Dir is the snapshot directory: a versioned manifest.json plus one
	// model file per workload. Empty keeps the fleet memory-only (no
	// persistence, no eviction reload — memory-only workloads are never
	// evicted).
	Dir string
	// ResidentCap bounds the number of models held in memory at once
	// (0 = unlimited). When a lazy load or Add pushes the fleet over the
	// cap, the least-recently-used reloadable model is evicted; its
	// evaluator state survives eviction.
	ResidentCap int
	// Window is the rolling-error window in scored observations
	// (default 64).
	Window int
	// MinSamples is the number of scored observations required before the
	// drift rule fires (default 16) — a couple of noisy intervals must not
	// trigger a rebuild.
	MinSamples int
	// DriftThreshold is the absolute rolling-MAPE percentage above which a
	// workload is drifted (default 50).
	DriftThreshold float64
	// DriftFactor flags drift when the rolling MAPE exceeds this multiple
	// of the serving model's stored cross-validation error (default 3).
	DriftFactor float64
	// HistoryCap bounds the per-workload observation history kept for
	// rebuilds (default 4096 values).
	HistoryCap int
	// MinRebuildHistory is the observation count required before a drifted
	// workload is queued for rebuild (default 64) — below it there is not
	// enough data to train on.
	MinRebuildHistory int
	// RebuildWorkers is the background rebuild pool size (default 1).
	RebuildWorkers int
	// RebuildQueue is the pending-rebuild queue depth (default 16). A
	// drifted workload whose enqueue would overflow the queue is dropped
	// (and re-queued by the next drifting observation batch).
	RebuildQueue int
	// RebuildBudget bounds one rebuild's wall clock (0 = unlimited). A
	// rebuild that exceeds it is recorded with a timeout outcome; with a
	// snapshot directory its completed candidates are checkpointed, so a
	// later attempt over unchanged data resumes instead of restarting.
	RebuildBudget time.Duration
	// RebuildBackoff is the base delay before a workload whose rebuild
	// failed or timed out may be queued again (default 30s). The delay
	// doubles per consecutive failure up to RebuildBackoffMax, with ±20%
	// deterministic jitter so a fleet of simultaneously failing workloads
	// does not retry in lockstep.
	RebuildBackoff time.Duration
	// RebuildBackoffMax caps the exponential backoff (default 15m).
	RebuildBackoffMax time.Duration
	// RebuildBreakerFailures is the consecutive-failure count that opens a
	// workload's rebuild circuit breaker (default 5). An open breaker
	// rejects rebuild requests outright (fleet.rebuilds.breaker_rejected)
	// until RebuildBreakerCooldown elapses, then admits one half-open
	// probe; a completed rebuild closes it.
	RebuildBreakerFailures int
	// RebuildBreakerCooldown is how long an open breaker blocks rebuilds
	// before allowing a probe (default 10m).
	RebuildBreakerCooldown time.Duration
	// WarmStartK is the transfer-learning neighbor budget: a drifted
	// workload's rebuild is seeded with the tuned hyperparameters of up to
	// K fingerprint-nearest sibling workloads from the prior store
	// (default 3). Negative disables warm-starting — every rebuild runs
	// cold, exactly the pre-transfer search.
	WarmStartK int
	// IngestShards is the number of evaluator shards (default 8). Each
	// workload hashes (FNV-1a) onto one shard, which owns the eval lock
	// for all of its workloads plus a bounded streaming-ingest queue and
	// one drain worker (see StartIngest).
	IngestShards int
	// IngestQueue is each shard's ingest queue depth in observation
	// batches (default 1024). A full queue makes EnqueueObserve return
	// ErrIngestQueueFull — explicit backpressure, never a silent drop.
	IngestQueue int
	// IngestChunk caps how many queued batches one drain pass applies
	// under a single shard-lock hold and WAL batch append (default 128).
	IngestChunk int
	// WAL configures the observation write-ahead log (see internal/wal).
	// WAL.Dir empty disables durability: the fleet ingests memory-only and
	// the observe path pays a single nil check. With a WAL, Observe,
	// RecordForecast and evaluator resets append before mutating memory,
	// and Open replays the log so evaluator history, rolling error windows
	// and drift state survive a crash. A runtime WAL failure degrades to
	// memory-only ingest (fleet.wal.degraded) instead of failing requests.
	WAL wal.Options
	// FS is the filesystem seam snapshot and manifest persistence write
	// through (default: the host filesystem). Tests substitute
	// wal/faultfs to inject write, fsync and rename failures.
	FS wal.FS
	// Build is the core configuration rebuilds run under (zero value:
	// core.QuickConfig()). Its Seed is re-derived per rebuild from the
	// training data so retraining on shifted data explores afresh, and its
	// CheckpointPath, when unset and Dir is set, defaults to a per-workload
	// checkpoint in Dir.
	Build core.Config
	// Metrics is the registry fleet metrics report to (default
	// obs.Default).
	Metrics *obs.Registry
	// Trace, when non-nil, records fleet.rebuild spans (workload,
	// duration, ok/rejected/failed/timeout outcome).
	Trace *obs.Trace
	// Flight, when non-nil, records per-workload causal event timelines
	// (observe batch → drift → rebuild → promotion) into a bounded
	// in-memory ring. Nil disables flight recording. Either way the
	// ingest hot path stays allocation-free.
	Flight *obs.FlightRecorder
	// Logger receives structured lifecycle events (obs schema): drift
	// verdict transitions, rebuild start/outcome, promotions and
	// rejections. Default: slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 16
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = 50
	}
	if o.DriftFactor <= 0 {
		o.DriftFactor = 3
	}
	if o.HistoryCap <= 0 {
		o.HistoryCap = 4096
	}
	if o.MinRebuildHistory <= 0 {
		o.MinRebuildHistory = 64
	}
	if o.RebuildWorkers <= 0 {
		o.RebuildWorkers = 1
	}
	if o.RebuildQueue <= 0 {
		o.RebuildQueue = 16
	}
	if o.Build.MaxIters <= 0 {
		o.Build = core.QuickConfig()
	}
	if o.RebuildBackoff <= 0 {
		o.RebuildBackoff = 30 * time.Second
	}
	if o.RebuildBackoffMax <= 0 {
		o.RebuildBackoffMax = 15 * time.Minute
	}
	if o.RebuildBreakerFailures <= 0 {
		o.RebuildBreakerFailures = 5
	}
	if o.RebuildBreakerCooldown <= 0 {
		o.RebuildBreakerCooldown = 10 * time.Minute
	}
	if o.WarmStartK == 0 {
		o.WarmStartK = 3
	}
	if o.IngestShards <= 0 {
		o.IngestShards = 8
	}
	if o.IngestQueue <= 0 {
		o.IngestQueue = 1024
	}
	if o.IngestChunk <= 0 {
		o.IngestChunk = 128
	}
	if o.FS == nil {
		o.FS = wal.OS()
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// metrics caches every fleet-wide handle (per-workload gauges are looked up
// on the observe path, which is orders of magnitude colder than forecast).
type metrics struct {
	reg               *obs.Registry
	hits              *obs.Counter
	misses            *obs.Counter
	loads             *obs.Counter
	loadFailures      *obs.Counter
	evictions         *obs.Counter
	promotions        *obs.Counter
	drift             *obs.Counter
	observations      *obs.Counter
	rebuilds          [len(verdictTable)]*obs.Counter // fleet.rebuilds.<verdict>, by verdict kind
	rebuildDropped    *obs.Counter
	rebuildDeferred   *obs.Counter
	breakerOpened     *obs.Counter
	breakerRejected   *obs.Counter
	persistFailures   *obs.Counter
	ingestEnqueued    *obs.Counter
	ingestRejected    *obs.Counter
	ingestApplied     *obs.Counter
	ingestChunks      *obs.Counter
	walAppendFailures *obs.Counter
	walReplayed       *obs.Counter
	walReplaySkipped  *obs.Counter
	warmHits          *obs.Counter
	warmCold          *obs.Counter
	resident          *obs.Gauge
	walDegraded       *obs.Gauge
	walTruncated      *obs.Gauge
	walReplayNs       *obs.Gauge
	breakerOpen       *obs.Gauge
	storeSize         *obs.Gauge
	rebuildSeconds    *obs.Histogram
	loadSeconds       *obs.Histogram
	roundsToBest      *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	m := metrics{
		reg:               reg,
		hits:              reg.Counter("fleet.hits"),
		misses:            reg.Counter("fleet.misses"),
		loads:             reg.Counter("fleet.loads"),
		loadFailures:      reg.Counter("fleet.load_failures"),
		evictions:         reg.Counter("fleet.evictions"),
		promotions:        reg.Counter("fleet.promotions"),
		drift:             reg.Counter("fleet.drift"),
		observations:      reg.Counter("fleet.observations"),
		rebuildDropped:    reg.Counter("fleet.rebuilds.dropped"),
		rebuildDeferred:   reg.Counter("fleet.rebuilds.deferred"),
		breakerOpened:     reg.Counter("fleet.rebuilds.breaker_opened"),
		breakerRejected:   reg.Counter("fleet.rebuilds.breaker_rejected"),
		persistFailures:   reg.Counter("fleet.persist_failures"),
		ingestEnqueued:    reg.Counter("fleet.ingest.enqueued"),
		ingestRejected:    reg.Counter("fleet.ingest.rejected"),
		ingestApplied:     reg.Counter("fleet.ingest.applied"),
		ingestChunks:      reg.Counter("fleet.ingest.chunks"),
		walAppendFailures: reg.Counter("fleet.wal.append_failures"),
		walReplayed:       reg.Counter("fleet.wal.replayed"),
		walReplaySkipped:  reg.Counter("fleet.wal.replay_skipped"),
		warmHits:          reg.Counter("profile.warmstart.hits"),
		warmCold:          reg.Counter("profile.warmstart.cold"),
		resident:          reg.Gauge("fleet.resident"),
		walDegraded:       reg.Gauge("fleet.wal.degraded"),
		walTruncated:      reg.Gauge("fleet.wal.truncated_bytes"),
		walReplayNs:       reg.Gauge("fleet.wal.replay_ns"),
		breakerOpen:       reg.Gauge("fleet.rebuild.breaker_open"),
		storeSize:         reg.Gauge("profile.store.size"),
		rebuildSeconds:    reg.Histogram("fleet.rebuild_seconds"),
		loadSeconds:       reg.Histogram("fleet.load_seconds"),
		roundsToBest:      reg.Histogram("profile.rounds_to_best"),
	}
	for k, row := range verdictTable {
		m.rebuilds[k] = reg.Counter(row.counter)
	}
	return m
}

// entry is one workload's registry slot. The model pointer is atomic so
// forecasts never block on promotions or evictions; registry bookkeeping
// (resident flag, LRU stamp) is guarded by Fleet.mu, evaluator state by
// the owning shard's lock (shard.mu — FNV(workload) → shard, see
// shard.go), and disk loads are serialized by loadMu so a stampede of
// misses reads the snapshot once.
type entry struct {
	id   string
	file string // snapshot file name relative to Dir ("" = memory-only)

	model      atomic.Pointer[core.Model]
	valErrBits atomic.Uint64 // current model's CV error (survives eviction)
	lastUsed   atomic.Int64  // LRU stamp (fleet-wide sequence)

	// version counts promotions for this workload; forecast caches key on
	// it so entries from an old model can never satisfy lookups after a
	// promotion. Promote stores the model pointer BEFORE bumping version
	// and readers load version BEFORE the model (ModelWithVersion), so a
	// reader that observes the new version is guaranteed the new model; a
	// lazy reload of the same snapshot does not bump it (same bytes, same
	// forecasts).
	version atomic.Int64

	// mape is the per-workload rolling-MAPE gauge, resolved once at entry
	// creation so the observe path never rebuilds the metric name (the
	// string concat plus registry lookup used to cost 2 allocs per call).
	mape *obs.Gauge

	loadMu sync.Mutex

	// shard owns this workload's eval lock and streaming-ingest queue;
	// eval is guarded by shard.mu. Every mutation — Observe, streamed
	// ingest, RecordForecast, resetEval, replay — serializes through it,
	// WAL appends included.
	shard *evalShard
	eval  evalState

	rebuilding atomic.Bool
	rebuilds   atomic.Int64
	promotions atomic.Int64
	rejections atomic.Int64

	// Rebuild retry/backoff state. failStreak counts consecutive failed or
	// timed-out rebuilds; nextAttempt (unix nanos) defers re-queueing until
	// the exponential backoff elapses; breakerOpen/breakerUntil implement
	// the per-workload circuit breaker (open rejects rebuilds until
	// breakerUntil, then one half-open probe is admitted; a completed
	// rebuild closes it).
	failStreak   atomic.Int64
	nextAttempt  atomic.Int64
	breakerOpen  atomic.Bool
	breakerUntil atomic.Int64

	// driftTrace/driftParent latch the flight-recorder identity of the
	// most recent drifting observation batch that queued a rebuild. The
	// rebuild worker consumes (Swap 0) them so the fleet.rebuild span and
	// the rebuild's timeline events inherit the triggering batch's trace —
	// the causal seam between the async ingest path and the rebuild pool.
	driftTrace  atomic.Uint64
	driftParent atomic.Uint64

	resident bool // guarded by Fleet.mu
}

func (e *entry) valError() float64     { return math.Float64frombits(e.valErrBits.Load()) }
func (e *entry) setValError(v float64) { e.valErrBits.Store(math.Float64bits(v)) }

// Fleet is the multi-workload model manager.
type Fleet struct {
	opts Options
	m    metrics
	log  *slog.Logger
	fsys wal.FS

	// flight is the per-workload causal event recorder (nil = disabled).
	flight *obs.FlightRecorder

	// wal is the observation write-ahead log (nil: durability off).
	// walFailed latches after the first runtime WAL error — ingest
	// continues memory-only and DurabilityDegraded reports true.
	wal       *wal.Log
	walFailed atomic.Bool

	mu        sync.RWMutex // entries map, resident accounting, manifest writes
	entries   map[string]*entry
	residents int
	seq       atomic.Int64

	queue  chan string
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Streaming ingest (shard.go): per-shard eval locks + bounded queues,
	// drain workers started by StartIngest and stopped by Close.
	shards     []*evalShard
	ingestOn   atomic.Bool
	ingestStop chan struct{}
	ingestWG   sync.WaitGroup

	// priors is the transfer-learning prior store: one completed-build
	// outcome per workload, persisted to priorsPath (priors.json next to
	// the manifest) when the fleet has a directory. Always non-nil.
	priors     *profile.Store
	priorsPath string

	// buildFn runs one rebuild; tests substitute it to make the
	// drift→rebuild→promotion pipeline instantaneous and deterministic. It
	// returns the full search result — the fleet needs the candidate
	// database for rounds-to-best accounting, not just the winner.
	buildFn func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error)

	// onPromote, when set, is called after every successful promotion
	// (including reloads) with the workload ID — the serving layer hooks
	// its forecast-cache invalidation here.
	onPromote atomic.Value // func(id string)
}

// OnPromote registers fn to run after every successful promotion or reload,
// with the promoted workload's ID. At most one hook is kept (last wins); fn
// must be fast and must not call back into Promote.
func (f *Fleet) OnPromote(fn func(id string)) {
	f.onPromote.Store(fn)
}

// Open returns a fleet over opts. With a snapshot directory the manifest is
// read (a missing manifest means an empty fleet, so a fresh directory
// bootstraps cleanly) and models load lazily on first use.
func Open(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	f := &Fleet{
		opts:    opts,
		m:       newMetrics(opts.Metrics),
		log:     opts.Logger.With(obs.LogComponent, "fleet"),
		fsys:    opts.FS,
		flight:  opts.Flight,
		entries: map[string]*entry{},
		queue:   make(chan string, opts.RebuildQueue),
		buildFn: coreBuild,
	}
	f.shards = newShards(opts.IngestShards, opts.IngestQueue, opts.Metrics)
	if opts.Dir != "" {
		if err := f.fsys.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: creating %s: %w", opts.Dir, err)
		}
		entries, err := readManifest(filepath.Join(opts.Dir, manifestName))
		if err != nil {
			return nil, err
		}
		for _, me := range entries {
			if err := ValidateID(me.ID); err != nil {
				return nil, fmt.Errorf("fleet: manifest: %w", err)
			}
			if _, dup := f.entries[me.ID]; dup {
				return nil, fmt.Errorf("fleet: manifest lists workload %q twice", me.ID)
			}
			e := &entry{id: me.ID, file: me.File, mape: f.workloadGauge(me.ID), shard: f.shardFor(me.ID)}
			e.setValError(me.ValError)
			e.version.Store(1)
			e.eval = newEvalState(opts)
			f.entries[me.ID] = e
		}
	}
	// The prior store loads after the manifest so a boot with transfer
	// history warm-starts from the first rebuild. A corrupt store degrades
	// to cold starts — priors are an optimization, never a boot failure.
	f.priors = profile.NewStore()
	if opts.Dir != "" {
		f.priorsPath = filepath.Join(opts.Dir, priorsName)
		st, err := profile.Load(f.priorsPath)
		if err != nil {
			f.log.Warn("prior store unreadable; rebuilds start cold",
				"path", f.priorsPath, "error", err.Error())
		}
		f.priors = st
	}
	f.m.storeSize.Set(int64(f.priors.Len()))
	if opts.WAL.Dir != "" {
		// fleet.wal.replay_ns is the log's share of the restart: tail
		// recovery plus replay. The gauge holds nanoseconds because gauges
		// are integers; whole seconds would read 0 for most replays.
		start := time.Now()
		wl, err := wal.Open(opts.WAL)
		if err != nil {
			// An unopenable WAL is a boot-time configuration problem: fail
			// loudly rather than run silently non-durable.
			return nil, fmt.Errorf("fleet: opening wal: %w", err)
		}
		f.wal = wl
		// Surface open-time tail recovery immediately: a non-zero
		// fleet.wal.truncated_bytes after boot means the last crash tore a
		// record and the torn bytes were dropped.
		f.m.walTruncated.Set(wl.Stats().TruncatedBytes)
		if err := f.replayWAL(); err != nil {
			// A hole mid-log (corrupt non-tail segment): the records past it
			// cannot be trusted to reconstruct state, and appending after a
			// hole would compound it. Keep the partially restored in-memory
			// state, stop using the log, and surface degraded durability.
			f.wal.Close()
			f.degradeWAL("replay", "", err, obs.TraceCtx{})
		}
		f.m.walReplayNs.Set(int64(time.Since(start)))
	}
	return f, nil
}

// coreBuild is the production rebuild function: the full Fig. 6 workflow
// under the given configuration.
func coreBuild(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
	fw, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return fw.BuildContext(ctx, train, validate)
}

// Len returns the number of registered workloads.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.entries)
}

// IDs returns the registered workload IDs, sorted.
func (f *Fleet) IDs() []string {
	f.mu.RLock()
	out := make([]string, 0, len(f.entries))
	for id := range f.entries {
		out = append(out, id)
	}
	f.mu.RUnlock()
	sort.Strings(out)
	return out
}

func (f *Fleet) get(id string) *entry {
	f.mu.RLock()
	e := f.entries[id]
	f.mu.RUnlock()
	return e
}

// Add registers a new workload with its trained model. With a snapshot
// directory the model is persisted and the manifest updated atomically.
// Adding an existing ID is an error — use Promote to replace a model.
func (f *Fleet) Add(id string, m *core.Model) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("fleet: nil model for workload %q", id)
	}
	e := &entry{id: id, mape: f.workloadGauge(id), shard: f.shardFor(id)}
	e.eval = newEvalState(f.opts)
	e.model.Store(m)
	e.version.Store(1)
	e.setValError(m.ValError)
	e.lastUsed.Store(f.seq.Add(1))

	f.mu.Lock()
	if _, dup := f.entries[id]; dup {
		f.mu.Unlock()
		return fmt.Errorf("fleet: workload %q already registered", id)
	}
	if f.opts.Dir != "" {
		e.file = snapshotFile(id)
		if err := f.persistLocked(e, m); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	f.entries[id] = e
	e.resident = true
	f.residents++
	f.m.resident.Set(int64(f.residents))
	f.evictLocked(e)
	f.mu.Unlock()
	return nil
}

// Model returns the workload's current model, lazily loading it from its
// snapshot on a miss and touching its LRU stamp. The returned pointer stays
// valid (and immutable) even if the workload is promoted or evicted while
// the caller is still forecasting with it.
func (f *Fleet) Model(id string) (*core.Model, error) {
	e := f.get(id)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	if m := e.model.Load(); m != nil {
		e.lastUsed.Store(f.seq.Add(1))
		f.m.hits.Inc()
		return m, nil
	}
	f.m.misses.Inc()
	return f.load(e)
}

// ModelWithVersion is Model plus the workload's promotion version — the
// cache-key ingredient that makes post-promotion staleness impossible. The
// version is read BEFORE the model pointer, mirroring Promote's
// store-model-then-bump order: a caller that sees version v alongside model
// m can safely cache m's forecasts under v, because any model promoted
// after m carries a strictly larger version.
func (f *Fleet) ModelWithVersion(id string) (*core.Model, int64, error) {
	e := f.get(id)
	if e == nil {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	v := e.version.Load()
	if m := e.model.Load(); m != nil {
		e.lastUsed.Store(f.seq.Add(1))
		f.m.hits.Inc()
		return m, v, nil
	}
	f.m.misses.Inc()
	m, err := f.load(e)
	if err != nil {
		return nil, 0, err
	}
	return m, v, nil
}

// load reads an evicted (or never-resident) model from its snapshot.
func (f *Fleet) load(e *entry) (*core.Model, error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if m := e.model.Load(); m != nil { // lost a load race: the winner's model is fine
		return m, nil
	}
	if e.file == "" || f.opts.Dir == "" {
		f.m.loadFailures.Inc()
		return nil, fmt.Errorf("fleet: workload %q has no model and no snapshot to load", e.id)
	}
	m, err := f.loadSnapshot(e)
	if err != nil {
		f.m.loadFailures.Inc()
		return nil, fmt.Errorf("fleet: loading workload %q: %w", e.id, err)
	}
	f.m.loads.Inc()
	e.setValError(m.ValError)
	e.lastUsed.Store(f.seq.Add(1))
	f.mu.Lock()
	e.model.Store(m)
	if !e.resident {
		e.resident = true
		f.residents++
	}
	f.m.resident.Set(int64(f.residents))
	f.evictLocked(e)
	f.mu.Unlock()
	return m, nil
}

// evictLocked enforces ResidentCap: while over the cap, the
// least-recently-used reloadable model other than keep is dropped from
// memory (its snapshot, evaluator state and counters remain, so it lazily
// reloads on next use). Callers hold f.mu.
func (f *Fleet) evictLocked(keep *entry) {
	if f.opts.ResidentCap <= 0 {
		return
	}
	for f.residents > f.opts.ResidentCap {
		var victim *entry
		for _, e := range f.entries {
			if e == keep || !e.resident || e.file == "" {
				continue
			}
			if victim == nil || e.lastUsed.Load() < victim.lastUsed.Load() {
				victim = e
			}
		}
		if victim == nil {
			return // nothing evictable (memory-only models, or only keep)
		}
		victim.model.Store(nil)
		victim.resident = false
		f.residents--
		f.m.evictions.Inc()
		f.m.resident.Set(int64(f.residents))
	}
}

// Promote atomically replaces the workload's serving model (in-flight
// forecasts keep the model they already hold) and persists the new snapshot
// and manifest when the fleet has a directory. Promotion is unconditional —
// the improves-or-keeps policy lives in the rebuild path; operators
// force-swapping via reload go through here.
func (f *Fleet) Promote(id string, m *core.Model) error {
	if m == nil {
		return fmt.Errorf("fleet: nil model for workload %q", id)
	}
	e := f.get(id)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	f.promote(e, m)
	return nil
}

// promote is Promote past its checks. It cannot fail: a persist failure
// is counted and logged, and the model is promoted in memory regardless.
func (f *Fleet) promote(e *entry, m *core.Model) {
	f.mu.Lock()
	if f.opts.Dir != "" {
		if e.file == "" {
			e.file = snapshotFile(e.id)
		}
		if err := f.persistLocked(e, m); err != nil {
			// The promotion still happens in memory — a better model should
			// serve now; the broken disk is reported and retried on the next
			// promotion.
			f.m.persistFailures.Inc()
			f.log.Warn("snapshot persist failed, promoting in memory only",
				obs.LogWorkload, e.id, "error", err.Error())
		}
	}
	e.model.Store(m)
	// Model first, then version: a reader that loads version-then-model
	// (ModelWithVersion) and sees the new version is guaranteed this model,
	// so a forecast cached under the new version can never be stale.
	e.version.Add(1)
	e.setValError(m.ValError)
	e.lastUsed.Store(f.seq.Add(1))
	if !e.resident {
		e.resident = true
		f.residents++
	}
	f.m.resident.Set(int64(f.residents))
	f.evictLocked(e)
	f.mu.Unlock()
	e.promotions.Add(1)
	f.m.promotions.Inc()
	if fn, ok := f.onPromote.Load().(func(id string)); ok && fn != nil {
		fn(e.id)
	}
	// Enabled guard keeps Promote allocation-free when the handler drops
	// Info — variadic slog args otherwise box and allocate before the
	// handler is consulted (see BenchmarkPromotion).
	if f.log.Enabled(context.Background(), slog.LevelInfo) {
		f.log.Info("model promoted", obs.LogWorkload, e.id, "val_error", m.ValError)
	}
}

// ReloadWorkload re-reads the workload's snapshot from disk and promotes
// it — the fleet-mode equivalent of single-model hot reload.
func (f *Fleet) ReloadWorkload(id string) error {
	e := f.get(id)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	if e.file == "" || f.opts.Dir == "" {
		return fmt.Errorf("fleet: workload %q has no snapshot to reload", id)
	}
	m, err := f.loadSnapshot(e)
	if err != nil {
		return fmt.Errorf("fleet: reloading workload %q: %w", id, err)
	}
	return f.Promote(id, m)
}

// loadSnapshot reads the workload's snapshot file — a lazy load, an
// eviction reload or a ReloadWorkload — and times the read and decode into
// fleet.load_seconds, so the cost of a cold start shows without a trace.
func (f *Fleet) loadSnapshot(e *entry) (*core.Model, error) {
	start := time.Now()
	m, err := core.LoadFile(filepath.Join(f.opts.Dir, e.file))
	f.m.loadSeconds.Observe(time.Since(start).Seconds())
	return m, err
}

// persistLocked writes the model snapshot and then the manifest (both
// atomically: temp file + rename). Callers hold f.mu.
func (f *Fleet) persistLocked(e *entry, m *core.Model) error {
	if err := saveSnapshot(f.fsys, filepath.Join(f.opts.Dir, e.file), m); err != nil {
		return err
	}
	entries := make([]manifestEntry, 0, len(f.entries)+1)
	for id, other := range f.entries {
		if other.file == "" {
			continue
		}
		ve := other.valError()
		if other == e {
			ve = m.ValError
		}
		entries = append(entries, manifestEntry{ID: id, File: other.file, ValError: ve})
	}
	if _, registered := f.entries[e.id]; !registered { // Add: e not in the map yet
		entries = append(entries, manifestEntry{ID: e.id, File: e.file, ValError: m.ValError})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return writeManifest(f.fsys, filepath.Join(f.opts.Dir, manifestName), entries)
}

// WorkloadStatus is the per-workload health view served by the model and
// list endpoints.
type WorkloadStatus struct {
	ID                 string  `json:"id"`
	Resident           bool    `json:"resident"`
	ValError           float64 `json:"val_error"`
	Samples            int     `json:"samples"`
	RollingMAPE        float64 `json:"rolling_mape"`
	RollingRMSE        float64 `json:"rolling_rmse"`
	Drift              bool    `json:"drift"`
	Rebuilding         bool    `json:"rebuilding"`
	Rebuilds           int64   `json:"rebuilds"`
	Promotions         int64   `json:"promotions"`
	RejectedPromotions int64   `json:"rejected_promotions"`
}

// Status returns one workload's health view.
func (f *Fleet) Status(id string) (WorkloadStatus, error) {
	e := f.get(id)
	if e == nil {
		return WorkloadStatus{}, fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	return f.status(e), nil
}

// Statuses returns every workload's health view, sorted by ID.
func (f *Fleet) Statuses() []WorkloadStatus {
	ids := f.IDs()
	out := make([]WorkloadStatus, 0, len(ids))
	for _, id := range ids {
		if e := f.get(id); e != nil {
			out = append(out, f.status(e))
		}
	}
	return out
}

func (f *Fleet) status(e *entry) WorkloadStatus {
	e.shard.mu.Lock()
	samples := e.eval.samples()
	mape := e.eval.rollingMAPE()
	rmse := e.eval.rollingRMSE()
	drift := e.eval.drift
	e.shard.mu.Unlock()
	return WorkloadStatus{
		ID:                 e.id,
		Resident:           e.model.Load() != nil,
		ValError:           e.valError(),
		Samples:            samples,
		RollingMAPE:        mape,
		RollingRMSE:        rmse,
		Drift:              drift,
		Rebuilding:         e.rebuilding.Load(),
		Rebuilds:           e.rebuilds.Load(),
		Promotions:         e.promotions.Load(),
		RejectedPromotions: e.rejections.Load(),
	}
}

// Flight returns the fleet's flight recorder (nil when disabled) — the
// serving layer reads per-workload timelines and /debug/flight stats
// through it.
func (f *Fleet) Flight() *obs.FlightRecorder { return f.flight }

// snapshotFile names a workload's model file (the ID charset is file-safe
// by construction).
func snapshotFile(id string) string { return id + ".model.json" }
