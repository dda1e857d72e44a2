package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzPrometheusRender asserts the exposition contract: whatever metric
// names and values land in a registry, WritePrometheus must neither
// panic nor emit an exposition the strict round-trip parser rejects
// (illegal names, duplicate series, non-monotone or missing buckets).
func FuzzPrometheusRender(f *testing.F) {
	f.Add("serve.requests.forecast", int64(42), "fleet.rolling_mape_pct.gl-30m", int64(12), "serve.latency_seconds.forecast", 0.02, 1.5)
	f.Add("", int64(-1), "9digit", int64(math.MinInt64), "h", math.Inf(1), math.NaN())
	f.Add(`inj{le="0.1"} 7`+"\n# TYPE fake counter", int64(1), "g\nnewline", int64(0), "h\ttab", -5.0, 1e300)
	f.Add("dup_total", int64(1), "dup_total", int64(2), "dup_total", 3.0, 4.0)
	f.Add("ünïcode.метрика", int64(7), "a:colon", int64(1), "h", 1e-12, 1e12)
	f.Fuzz(func(t *testing.T, counterName string, counterVal int64,
		gaugeName string, gaugeVal int64, histName string, v1, v2 float64) {
		r := NewRegistry()
		r.Counter(counterName).Add(counterVal)
		r.Gauge(gaugeName).Set(gaugeVal)
		h := r.Histogram(histName)
		h.Observe(v1)
		h.Observe(v2)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		verifyExposition(t, sb.String())
	})
}

// FuzzHexIDJSON asserts the ID wire contract: every ID round-trips
// through its JSON form, its legacy decimal form parses to the same ID,
// and any input UnmarshalJSON accepts re-encodes to an ID that parses
// back to itself.
func FuzzHexIDJSON(f *testing.F) {
	f.Add(uint64(0), `"00000000000000ff"`)
	f.Add(uint64(291), `123`)
	f.Add(uint64(1<<63), `"ffffffffffffffff"`)
	f.Add(^uint64(0), `18446744073709551616`)
	f.Add(uint64(42), `"0x2a"`)
	f.Add(uint64(7), `null`)
	f.Fuzz(func(t *testing.T, id uint64, raw string) {
		b, err := json.Marshal(HexID(id))
		if err != nil {
			t.Fatal(err)
		}
		var back HexID
		if err := json.Unmarshal(b, &back); err != nil || back != HexID(id) {
			t.Fatalf("HexID %d round-tripped to %d via %s (err %v)", id, back, b, err)
		}
		var dec HexID
		if err := json.Unmarshal([]byte(strconv.FormatUint(id, 10)), &dec); err != nil || dec != HexID(id) {
			t.Fatalf("decimal %d parsed to %d (err %v)", id, dec, err)
		}
		var h HexID
		if h.UnmarshalJSON([]byte(raw)) != nil {
			return
		}
		b, err = json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var again HexID
		if err := json.Unmarshal(b, &again); err != nil || again != h {
			t.Fatalf("accepted %q as %d, which re-parsed to %d via %s (err %v)", raw, h, again, b, err)
		}
	})
}
