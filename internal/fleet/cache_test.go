package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/obs"
)

func testCache(t *testing.T, ttl time.Duration, capacity int) (*ForecastCache, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c := NewForecastCache(ttl, capacity, reg)
	if c == nil {
		t.Fatal("NewForecastCache returned nil for valid params")
	}
	return c, reg
}

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	return reg.Counter(name).Value()
}

func TestCacheGetPut(t *testing.T) {
	c, reg := testCache(t, time.Minute, 8)
	win := []float64{1, 2, 3}
	if _, prefix, ok := c.Get("w", 1, win, 2); ok || prefix != nil {
		t.Fatal("empty cache returned a hit or a prefix")
	}
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{9, 9}})
	got, _, ok := c.Get("w", 1, win, 2)
	if !ok || len(got.Forecasts) != 2 || got.Forecasts[0] != 9 {
		t.Fatalf("expected hit with [9 9], got %+v ok=%v", got, ok)
	}
	// A longer horizon misses but is handed the cached prefix to continue.
	if _, prefix, ok := c.Get("w", 1, win, 3); ok || len(prefix) != 2 {
		t.Fatalf("longer horizon: hit=%v prefix=%v, want a miss with the 2-step prefix", ok, prefix)
	}
	// Different version, workload or window must all miss outright.
	if _, prefix, ok := c.Get("w", 2, win, 2); ok || prefix != nil {
		t.Fatal("version should be part of the key")
	}
	if _, prefix, ok := c.Get("x", 1, win, 2); ok || prefix != nil {
		t.Fatal("workload should be part of the key")
	}
	if _, prefix, ok := c.Get("w", 1, []float64{1, 2, 4}, 2); ok || prefix != nil {
		t.Fatal("window should be part of the key")
	}
	if h := counterValue(t, reg, "fleet.cache.hit"); h != 1 {
		t.Fatalf("hit counter = %d, want 1", h)
	}
	if m, x := counterValue(t, reg, "fleet.cache.miss"), counterValue(t, reg, "fleet.cache.extend"); m != 5 || x != 1 {
		t.Fatalf("miss/extend counters = %d/%d, want 5/1", m, x)
	}
}

// TestCacheServesShorterPrefix: one entry per window answers every shorter
// horizon, through Get and Do, with a capacity-capped prefix so a caller
// appending to it cannot write into the shared entry.
func TestCacheServesShorterPrefix(t *testing.T) {
	c, reg := testCache(t, time.Minute, 8)
	win := []float64{1, 2, 3}
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{10, 11, 12, 13}})
	for steps := 1; steps <= 4; steps++ {
		got, _, ok := c.Get("w", 1, win, steps)
		if !ok || len(got.Forecasts) != steps || cap(got.Forecasts) != steps || got.Forecasts[steps-1] != float64(9+steps) {
			t.Fatalf("Get steps=%d: %v (cap %d) hit=%v", steps, got.Forecasts, cap(got.Forecasts), ok)
		}
		_ = append(got.Forecasts, -1)
	}
	got, hit, err := c.Do("w", 1, win, 2, func([]float64) (CachedForecast, error) {
		t.Fatal("Do recomputed a cached prefix")
		return CachedForecast{}, nil
	})
	if err != nil || !hit || len(got.Forecasts) != 2 || cap(got.Forecasts) != 2 || got.Forecasts[1] != 11 {
		t.Fatalf("Do steps=2: %+v hit=%v err=%v", got, hit, err)
	}
	if full, _, _ := c.Get("w", 1, win, 4); full.Forecasts[2] != 12 || full.Forecasts[3] != 13 {
		t.Fatalf("appending to a prefix wrote into the entry: %v", full.Forecasts)
	}
	if h := counterValue(t, reg, "fleet.cache.hit"); h != 6 {
		t.Fatalf("hit counter = %d, want 6", h)
	}
}

// TestCacheDoContinuesLongerHorizon: Do hands compute the cached healthy
// horizon, counts the call as a miss and an extend, and the entry then
// holds the longer horizon.
func TestCacheDoContinuesLongerHorizon(t *testing.T) {
	c, reg := testCache(t, time.Minute, 8)
	win := []float64{1, 2, 3}
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{10, 11}})
	var seen []float64
	got, hit, err := c.Do("w", 1, win, 4, func(prefix []float64) (CachedForecast, error) {
		seen = append([]float64(nil), prefix...)
		return CachedForecast{Forecasts: append(append([]float64(nil), prefix...), 12, 13)}, nil
	})
	if err != nil || hit || len(got.Forecasts) != 4 {
		t.Fatalf("Do steps=4: %+v hit=%v err=%v", got, hit, err)
	}
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 11 {
		t.Fatalf("compute saw prefix %v, want [10 11]", seen)
	}
	if m, x := counterValue(t, reg, "fleet.cache.miss"), counterValue(t, reg, "fleet.cache.extend"); m != 1 || x != 1 {
		t.Fatalf("miss/extend counters = %d/%d, want 1/1", m, x)
	}
	if full, _, ok := c.Get("w", 1, win, 4); !ok || full.Forecasts[3] != 13 {
		t.Fatalf("entry not grown to 4 steps: %+v hit=%v", full, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want one entry per window", c.Len())
	}
	// With no cached horizon compute gets nil and the miss is no extend.
	if _, _, err := c.Do("w", 1, []float64{7}, 2, func(prefix []float64) (CachedForecast, error) {
		if prefix != nil {
			t.Fatalf("fresh window got prefix %v", prefix)
		}
		return CachedForecast{Forecasts: []float64{1, 1}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if x := counterValue(t, reg, "fleet.cache.extend"); x != 1 {
		t.Fatalf("extend counter = %d after a fresh miss, want 1", x)
	}
}

// TestCacheDegradedExactLengthOnly: a degraded (last-value) entry answers
// only its own horizon; a shorter request recomputes from scratch and a
// longer one is never continued from it.
func TestCacheDegradedExactLengthOnly(t *testing.T) {
	c, _ := testCache(t, time.Minute, 8)
	win := []float64{1, 2, 3}
	degraded := CachedForecast{Forecasts: []float64{3, 3, 3}, Degraded: true, Fallback: "last-value", Reason: "nan"}
	c.Put("w", 1, win, degraded)
	if got, _, ok := c.Get("w", 1, win, 3); !ok || !got.Degraded || got.Fallback != "last-value" {
		t.Fatalf("exact length: %+v hit=%v", got, ok)
	}
	for _, steps := range []int{2, 4} {
		if _, prefix, ok := c.Get("w", 1, win, steps); ok || prefix != nil {
			t.Fatalf("steps=%d: hit=%v prefix=%v, want a plain miss", steps, ok, prefix)
		}
	}
	if _, hit, _ := c.Do("w", 1, win, 4, func(prefix []float64) (CachedForecast, error) {
		if prefix != nil {
			t.Fatalf("degraded entry continued: prefix %v", prefix)
		}
		return CachedForecast{Forecasts: make([]float64, 4)}, nil
	}); hit {
		t.Fatal("4 steps served from a 3-step degraded entry")
	}
	// The healthy 4-step horizon replaced the degraded entry.
	if got, _, ok := c.Get("w", 1, win, 3); !ok || got.Degraded {
		t.Fatalf("after healthy compute: %+v hit=%v", got, ok)
	}
}

// TestCachePutNeverShrinksHealthy: a shorter Put, healthy or degraded,
// leaves a live longer healthy entry in place; a longer one replaces it;
// once the entry expires a shorter one is stored again.
func TestCachePutNeverShrinksHealthy(t *testing.T) {
	c, _ := testCache(t, time.Minute, 8)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	win := []float64{1, 2, 3}
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{10, 11, 12, 13}})
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{10, 11}})
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{3, 3}, Degraded: true})
	if got, _, ok := c.Get("w", 1, win, 4); !ok || got.Degraded || got.Forecasts[3] != 13 {
		t.Fatalf("shorter Put shrank the entry: %+v hit=%v", got, ok)
	}
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{10, 11, 12, 13, 14}})
	if got, _, ok := c.Get("w", 1, win, 5); !ok || got.Forecasts[4] != 14 {
		t.Fatalf("longer Put did not grow the entry: %+v hit=%v", got, ok)
	}
	now = now.Add(2 * time.Minute)
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{20}})
	if got, _, ok := c.Get("w", 1, win, 1); !ok || got.Forecasts[0] != 20 {
		t.Fatalf("Put over an expired entry: %+v hit=%v", got, ok)
	}
	if _, prefix, ok := c.Get("w", 1, win, 2); ok || len(prefix) != 1 {
		t.Fatalf("expired long entry still served: hit=%v prefix=%v", ok, prefix)
	}
}

// TestCacheDoConcurrentHorizons is a -race workout: concurrent Do calls at
// 4 and 12 steps on one window, each computing its horizon from the prefix
// it is handed, must all serve the first steps of one sequence.
func TestCacheDoConcurrentHorizons(t *testing.T) {
	c, _ := testCache(t, time.Minute, 8)
	win := []float64{5, 6, 7}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		steps := 4 + 8*(g%2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				got, _, err := c.Do("w", 1, win, steps, func(prefix []float64) (CachedForecast, error) {
					out := append(make([]float64, 0, steps), prefix...)
					for i := len(prefix); i < steps; i++ {
						out = append(out, float64(100+i))
					}
					return CachedForecast{Forecasts: out}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Forecasts) != steps {
					t.Errorf("steps=%d: got %d forecasts", steps, len(got.Forecasts))
					return
				}
				for i, v := range got.Forecasts {
					if v != float64(100+i) {
						t.Errorf("steps=%d t+%d: %v, want %v", steps, i+1, v, 100+i)
						return
					}
				}
				if r%10 == 0 {
					c.InvalidateWorkload("w")
				}
			}
		}()
	}
	wg.Wait()
}

func TestCacheTTLExpiry(t *testing.T) {
	c, reg := testCache(t, time.Minute, 8)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	win := []float64{5, 6}
	c.Put("w", 1, win, CachedForecast{Forecasts: []float64{7}})
	if _, _, ok := c.Get("w", 1, win, 1); !ok {
		t.Fatal("fresh entry should hit")
	}
	now = now.Add(2 * time.Minute)
	if _, _, ok := c.Get("w", 1, win, 1); ok {
		t.Fatal("expired entry served")
	}
	if ev := counterValue(t, reg, "fleet.cache.evict"); ev != 1 {
		t.Fatalf("evict counter = %d, want 1", ev)
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still resident: len=%d", c.Len())
	}
}

func TestCacheCapLRU(t *testing.T) {
	c, reg := testCache(t, time.Minute, 2)
	wins := [][]float64{{1}, {2}, {3}}
	for i, w := range wins {
		c.Put("w", 1, w, CachedForecast{Forecasts: []float64{float64(i)}})
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want cap 2", c.Len())
	}
	if _, _, ok := c.Get("w", 1, wins[0], 1); ok {
		t.Fatal("LRU entry should have been evicted")
	}
	for _, w := range wins[1:] {
		if _, _, ok := c.Get("w", 1, w, 1); !ok {
			t.Fatalf("recent entry %v missing", w)
		}
	}
	if ev := counterValue(t, reg, "fleet.cache.evict"); ev != 1 {
		t.Fatalf("evict counter = %d, want 1", ev)
	}
}

func TestCacheInvalidateWorkload(t *testing.T) {
	c, _ := testCache(t, time.Minute, 8)
	c.Put("a", 1, []float64{1}, CachedForecast{Forecasts: []float64{1}})
	c.Put("a", 1, []float64{2}, CachedForecast{Forecasts: []float64{2}})
	c.Put("b", 1, []float64{3}, CachedForecast{Forecasts: []float64{3}})
	c.InvalidateWorkload("a")
	if _, _, ok := c.Get("a", 1, []float64{1}, 1); ok {
		t.Fatal("invalidated entry served")
	}
	if _, _, ok := c.Get("b", 1, []float64{3}, 1); !ok {
		t.Fatal("unrelated workload invalidated")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheDoSingleflight(t *testing.T) {
	c, _ := testCache(t, time.Minute, 8)
	win := []float64{4, 2}
	var computes int
	var computeMu sync.Mutex
	gate := make(chan struct{})
	const waiters = 8
	results := make([]CachedForecast, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("w", 1, win, 3, func([]float64) (CachedForecast, error) {
				computeMu.Lock()
				computes++
				computeMu.Unlock()
				<-gate // hold every concurrent caller in the flight
				return CachedForecast{Forecasts: []float64{1, 2, 3}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Give the goroutines a moment to pile onto the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", computes)
	}
	for i, v := range results {
		if len(v.Forecasts) != 3 {
			t.Fatalf("waiter %d got %+v", i, v)
		}
	}
	// And the value is now cached for later callers.
	if _, _, ok := c.Get("w", 1, win, 3); !ok {
		t.Fatal("Do result was not cached")
	}
}

// TestCacheDoWaiterSurvivesLeaderCancel: the flight leader computes under
// its own request-scoped context. If that context dies (client disconnect,
// deadline), coalesced waiters must not inherit the leader's error — they
// fall back to computing under their own context and succeed.
func TestCacheDoWaiterSurvivesLeaderCancel(t *testing.T) {
	c, _ := testCache(t, time.Minute, 8)
	win := []float64{3, 1}
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: enters the flight, then fails with ctx cancellation
		defer wg.Done()
		_, _, leaderErr = c.Do("w", 1, win, 2, func([]float64) (CachedForecast, error) {
			close(leaderIn)
			<-release
			return CachedForecast{}, context.Canceled
		})
	}()
	<-leaderIn
	waiterDone := make(chan struct{})
	var waiterComputed bool
	var waiterVal CachedForecast
	var waiterErr error
	go func() { // waiter: coalesces onto the leader's flight
		defer close(waiterDone)
		waiterVal, _, waiterErr = c.Do("w", 1, win, 2, func([]float64) (CachedForecast, error) {
			waiterComputed = true
			return CachedForecast{Forecasts: []float64{7, 7}}, nil
		})
	}()
	// Let the waiter reach the flight before the leader fails.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	<-waiterDone
	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", leaderErr)
	}
	if waiterErr != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", waiterErr)
	}
	if !waiterComputed || len(waiterVal.Forecasts) != 2 || waiterVal.Forecasts[0] != 7 {
		t.Fatalf("waiter did not recompute under its own context: computed=%v val=%+v", waiterComputed, waiterVal)
	}
}

func TestCacheDoErrorNotCached(t *testing.T) {
	c, _ := testCache(t, time.Minute, 8)
	win := []float64{1}
	boom := errors.New("boom")
	if _, _, err := c.Do("w", 1, win, 1, func([]float64) (CachedForecast, error) {
		return CachedForecast{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	calls := 0
	v, hit, err := c.Do("w", 1, win, 1, func([]float64) (CachedForecast, error) {
		calls++
		return CachedForecast{Forecasts: []float64{8}}, nil
	})
	if err != nil || hit || calls != 1 || v.Forecasts[0] != 8 {
		t.Fatalf("post-error Do: v=%+v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *ForecastCache
	if _, _, ok := c.Get("w", 1, []float64{1}, 1); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("w", 1, []float64{1}, CachedForecast{})
	c.InvalidateWorkload("w")
	if c.Len() != 0 {
		t.Fatal("nil cache len")
	}
	v, hit, err := c.Do("w", 1, []float64{1}, 1, func([]float64) (CachedForecast, error) {
		return CachedForecast{Forecasts: []float64{5}}, nil
	})
	if err != nil || hit || v.Forecasts[0] != 5 {
		t.Fatalf("nil cache Do: %+v %v %v", v, hit, err)
	}
	if NewForecastCache(0, 10, nil) != nil || NewForecastCache(time.Second, 0, nil) != nil {
		t.Fatal("disabled params should return nil cache")
	}
}
