package fleet

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"loaddynamics/internal/obs"
)

// CachedForecast is one cacheable forecast result: the horizon that was
// served plus its degraded-fallback metadata, so replaying a hit reproduces
// the original response exactly. The Forecasts slice is owned by the cache
// and shared across hits — callers must treat it as read-only.
type CachedForecast struct {
	Forecasts []float64
	Degraded  bool
	Fallback  string
	Reason    string
}

// answers reports whether v serves a steps-step request: a healthy horizon
// answers every shorter request with its prefix, because an iterated
// forecast's first k steps are the k-step forecast on the same window. A
// degraded (last-value) horizon answers only its own length — the model
// may be healthy for fewer steps.
func (v CachedForecast) answers(steps int) bool {
	if v.Degraded {
		return len(v.Forecasts) == steps
	}
	return len(v.Forecasts) >= steps
}

// cacheKey identifies one window's forecasts: the workload, the model
// promotion version it ran under, and a fingerprint of the exact history
// window fed to the model. The horizon is not part of the key — the entry
// holds the longest healthy horizon computed for the window. Keying on the
// fleet's promotion version (see entry.version) makes post-promotion
// staleness structurally impossible: a promoted model carries a new
// version, so every key minted under the old model stops matching, and
// InvalidateWorkload reclaims the dead entries eagerly.
type cacheKey struct {
	workload string
	version  int64
	fp       uint64
}

// cacheEntry is one completed forecast plus the exact window it was
// computed from — fingerprints alone are not proof of equality, so hits
// re-compare the stored window before being served.
type cacheEntry struct {
	key     cacheKey
	window  []float64
	val     CachedForecast
	expires time.Time
}

// flightKey names one in-progress computation: a window and a horizon.
type flightKey struct {
	cacheKey
	steps int
}

// flight is one in-progress computation other requests for the same key
// wait on (singleflight): done is closed once val/err are set.
type flight struct {
	window []float64
	done   chan struct{}
	val    CachedForecast
	err    error
}

// ForecastCache is a TTL + LRU cache of forecast horizons with singleflight
// on miss. It exists because an auto-scaler fleet re-polls the same
// (workload, window) many times between observations, at one or more
// horizons: the first request pays for the LSTM pass, and everyone else
// inside the TTL gets the bytes back in well under a microsecond — a
// shorter horizon as a prefix of the cached one, a longer one by running
// the model only for the steps past it. Hits, misses and evictions are
// exported as fleet.cache.{hit,miss,evict}; a miss that continued a cached
// horizon is also counted in fleet.cache.extend.
type ForecastCache struct {
	ttl time.Duration
	cap int

	hit, miss, extend, evict *obs.Counter

	now func() time.Time // test hook

	mu      sync.Mutex
	entries map[cacheKey]*list.Element // of *cacheEntry
	lru     *list.List                 // front = most recently used
	flights map[flightKey]*flight
}

// NewForecastCache builds a cache holding up to capacity entries for up to
// ttl each. Both must be positive — a disabled cache is represented by a
// nil *ForecastCache, whose methods are safe no-op misses.
func NewForecastCache(ttl time.Duration, capacity int, reg *obs.Registry) *ForecastCache {
	if ttl <= 0 || capacity <= 0 {
		return nil
	}
	if reg == nil {
		reg = obs.Default
	}
	return &ForecastCache{
		ttl:     ttl,
		cap:     capacity,
		hit:     reg.Counter("fleet.cache.hit"),
		miss:    reg.Counter("fleet.cache.miss"),
		extend:  reg.Counter("fleet.cache.extend"),
		evict:   reg.Counter("fleet.cache.evict"),
		now:     time.Now,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
		flights: make(map[flightKey]*flight),
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fingerprint is FNV-1a over the window's float bits and length.
func fingerprint(window []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(u uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(u >> (8 * i)))
			h *= prime
		}
	}
	mix(uint64(len(window)))
	for _, v := range window {
		mix(math.Float64bits(v))
	}
	return h
}

func (c *ForecastCache) key(workload string, version int64, window []float64) cacheKey {
	return cacheKey{workload: workload, version: version, fp: fingerprint(window)}
}

// lookupLocked returns the live entry for k whose stored window equals
// window, expiring stale entries as a side effect. Callers hold c.mu.
func (c *ForecastCache) lookupLocked(k cacheKey, window []float64) (*cacheEntry, bool) {
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	ce := el.Value.(*cacheEntry)
	if c.now().After(ce.expires) {
		c.removeLocked(el)
		c.evict.Inc()
		return nil, false
	}
	if !floatsEqual(ce.window, window) { // fingerprint collision
		return nil, false
	}
	c.lru.MoveToFront(el)
	return ce, true
}

// getLocked is the one lookup behind Get and Do. A live entry that answers
// steps is a hit, served as its capacity-capped prefix so no caller can
// append into the shared slice. Otherwise prefix is the entry's healthy
// horizon (nil when there is none or it is degraded), which is shorter
// than steps and the caller continues. Callers hold c.mu.
func (c *ForecastCache) getLocked(k cacheKey, window []float64, steps int) (val CachedForecast, prefix []float64, hit bool) {
	ce, ok := c.lookupLocked(k, window)
	switch {
	case !ok:
		return CachedForecast{}, nil, false
	case ce.val.answers(steps):
		val = ce.val
		val.Forecasts = val.Forecasts[:steps:steps]
		return val, nil, true
	case ce.val.Degraded:
		return CachedForecast{}, nil, false
	}
	n := len(ce.val.Forecasts)
	return CachedForecast{}, ce.val.Forecasts[:n:n], false
}

// count books one lookup: a hit, or a miss that is also an extend
// when a cached horizon is being continued.
func (c *ForecastCache) count(hit bool, prefix []float64) {
	if hit {
		c.hit.Inc()
		return
	}
	c.miss.Inc()
	if len(prefix) > 0 {
		c.extend.Inc()
	}
}

func (c *ForecastCache) removeLocked(el *list.Element) {
	ce := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, ce.key)
}

// storeLocked inserts k's entry, or replaces it unless the live entry is a
// healthy horizon at least as long as val — a Put never shrinks a healthy
// entry — and enforces the capacity by dropping the least-recently-used
// entries. window and val.Forecasts are retained. Callers hold c.mu.
func (c *ForecastCache) storeLocked(k cacheKey, window []float64, val CachedForecast) {
	if el, ok := c.entries[k]; ok {
		ce := el.Value.(*cacheEntry)
		if !c.now().After(ce.expires) && floatsEqual(ce.window, window) &&
			!ce.val.Degraded && len(ce.val.Forecasts) >= len(val.Forecasts) {
			return
		}
		c.removeLocked(el)
	}
	ce := &cacheEntry{key: k, window: window, val: val, expires: c.now().Add(c.ttl)}
	c.entries[k] = c.lru.PushFront(ce)
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back())
		c.evict.Inc()
	}
}

// Get returns the cached forecast for steps steps on (workload, version,
// window) if a live entry answers it. It never blocks on in-flight
// computations — the batch endpoint uses it to split a request into cached
// and to-compute halves. On a miss, prefix is the longest live healthy
// horizon cached for the window (nil if none): the caller forecasts the
// remaining steps−len(prefix) steps from window ++ prefix, which is
// bit-identical to recomputing all steps, and serves prefix ++ that tail.
func (c *ForecastCache) Get(workload string, version int64, window []float64, steps int) (val CachedForecast, prefix []float64, hit bool) {
	if c == nil {
		return CachedForecast{}, nil, false
	}
	k := c.key(workload, version, window)
	c.mu.Lock()
	defer c.mu.Unlock()
	val, prefix, hit = c.getLocked(k, window, steps)
	c.count(hit, prefix)
	return val, prefix, hit
}

// Put stores a computed forecast for the window, unless a live healthy
// entry already holds at least as many steps. The window and forecasts are
// copied, so the caller may reuse its buffers.
func (c *ForecastCache) Put(workload string, version int64, window []float64, val CachedForecast) {
	if c == nil {
		return
	}
	k := c.key(workload, version, window)
	val.Forecasts = append([]float64(nil), val.Forecasts...)
	win := append([]float64(nil), window...)
	c.mu.Lock()
	c.storeLocked(k, win, val)
	c.mu.Unlock()
}

// Do returns the cached steps-step forecast or computes it exactly once per
// (window, steps): concurrent misses coalesce onto one compute call and all
// receive its result (hit=true for the waiters). compute is passed the
// prefix Get would return — the cached healthy horizon to continue, or
// nil — and must return the whole steps-step forecast. Errors are not
// cached. On a nil cache Do degenerates to calling compute(nil) directly.
func (c *ForecastCache) Do(workload string, version int64, window []float64, steps int, compute func(prefix []float64) (CachedForecast, error)) (CachedForecast, bool, error) {
	if c == nil {
		val, err := compute(nil)
		return val, false, err
	}
	k := c.key(workload, version, window)
	fk := flightKey{k, steps}
	c.mu.Lock()
	val, prefix, hit := c.getLocked(k, window, steps)
	if hit {
		c.hit.Inc()
		c.mu.Unlock()
		return val, true, nil
	}
	if fl, ok := c.flights[fk]; ok {
		if !floatsEqual(fl.window, window) {
			// Fingerprint collision against the in-flight window: compute
			// independently and do not publish, so the flight's result stays
			// correct for its own window.
			c.mu.Unlock()
			val, err := compute(prefix)
			return val, false, err
		}
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
				// The leader's compute ran under the leader's request-scoped
				// context; its cancellation says nothing about this caller's
				// request. Fall back to computing under our own context
				// rather than propagating a stranger's disconnect.
				val, err := compute(prefix)
				return val, false, err
			}
			return CachedForecast{}, false, fl.err
		}
		c.hit.Inc()
		return fl.val, true, nil
	}
	c.count(false, prefix)
	fl := &flight{window: append([]float64(nil), window...), done: make(chan struct{})}
	c.flights[fk] = fl
	c.mu.Unlock()

	fl.val, fl.err = compute(prefix)
	close(fl.done)

	c.mu.Lock()
	delete(c.flights, fk)
	if fl.err == nil {
		val := fl.val
		val.Forecasts = append([]float64(nil), val.Forecasts...)
		c.storeLocked(k, fl.window, val)
	}
	c.mu.Unlock()
	return fl.val, false, fl.err
}

// InvalidateWorkload drops every cached entry for the workload — wired to
// Fleet.OnPromote so a promotion or reload flushes the old model's
// forecasts immediately instead of waiting out the TTL (the version key
// already guarantees they could never be served; this reclaims the memory
// and keeps the evict counter honest).
func (c *ForecastCache) InvalidateWorkload(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for k, el := range c.entries {
		if k.workload == id {
			c.removeLocked(el)
			c.evict.Inc()
		}
	}
	c.mu.Unlock()
}

// Len returns the number of live entries (for tests and admin visibility).
func (c *ForecastCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
