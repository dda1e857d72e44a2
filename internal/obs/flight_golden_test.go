package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// goldenStamp is the fixed instant of the event with the given ID (with
// sub-millisecond digits, so the RFC 3339 nanosecond form is exercised).
func goldenStamp(id uint64) time.Time {
	return time.Unix(1_790_000_000, 0).Add(time.Duration(id)*1_500_123*time.Nanosecond + 7)
}

// nextStamp is the instant of the next event r records.
func nextStamp(r *FlightRecorder) time.Time { return goldenStamp(r.seq.Load() + 1) }

// goldenHot records the hot ingest events the fleet's noteIngest emits.
type goldenHot struct{ r *FlightRecorder }

func (g goldenHot) batch(w string, tc TraceCtx, accepted, scored, samples int, mape float64, forced bool) uint64 {
	return g.r.RecordBatch(w, tc, IngestAttrs{Accepted: accepted, Scored: scored, Samples: samples, RollingMAPE: mape}, forced)
}

func (g goldenHot) driftDetected(w string, tc TraceCtx, mape, valErr float64, samples int) uint64 {
	return g.r.RecordDrift(w, tc, IngestAttrs{Samples: samples, RollingMAPE: mape, ValError: valErr}, true)
}

func (g goldenHot) driftCleared(w string, tc TraceCtx, mape float64, samples int) uint64 {
	// ValError is set to show drift.cleared does not render it.
	return g.r.RecordDrift(w, tc, IngestAttrs{Samples: samples, RollingMAPE: mape, ValError: 99}, false)
}

func (g goldenHot) enqueued(w string, tc TraceCtx) uint64 {
	return g.r.RecordRebuildEnqueued(w, tc)
}

// goldenRecorder records a fixed sequence covering every Flight* kind:
// sampled and forced hot events, the rebuild lifecycle with nested
// warm-start provenance, every rebuild verdict, a wal.degraded event,
// events off the kind/outcome tables, and a ring that wraps.
func goldenRecorder() *FlightRecorder {
	r := NewFlightRecorder(FlightRecorderOptions{Cap: 12, SampleEvery: 2})
	// The clock runs after the event's ID is assigned.
	r.clock = func() int64 { return goldenStamp(r.seq.Load()).UnixNano() }
	g := goldenHot{r: r}
	rare := func(ev FlightEvent) uint64 {
		ev.Time = nextStamp(r)
		return r.Record(ev)
	}

	// gl-30m: the self-optimizing loop, drift → rebuild → promotion →
	// drift cleared.
	const loop = "gl-30m"
	g.batch(loop, TraceCtx{Trace: 0x1001, RequestID: "req-1"}, 4, 0, 0, 0, false)
	g.batch(loop, TraceCtx{Trace: 0x1002, RequestID: "req-2"}, 4, 4, 4, 3.25, false) // sampled away
	tc := TraceCtx{Trace: 0x1003, RequestID: "req-3"}
	batch := g.batch(loop, tc, 2, 2, 6, 41.66666666666667, true)
	drift := g.driftDetected(loop, TraceCtx{Trace: tc.Trace, Parent: batch, RequestID: tc.RequestID}, 41.66666666666667, 7.5, 6)
	g.enqueued(loop, TraceCtx{Trace: tc.Trace, Parent: drift, RequestID: tc.RequestID})
	started := rare(FlightEvent{Trace: HexID(tc.Trace), Parent: HexID(drift), Workload: loop,
		Kind: FlightRebuildStarted, Outcome: OutcomeOK, Attrs: map[string]any{"history": 256}})
	rare(FlightEvent{Trace: HexID(tc.Trace), Parent: HexID(started), Workload: loop,
		Kind: FlightRebuildPromoted, Outcome: OutcomeOK, Attrs: map[string]any{
			"val_error":           3.1415926535,
			"incumbent_val_error": 7.5,
			"rounds_to_best":      2,
			"warmstart_priors":    3,
			"warmstart_neighbors": []string{"wiki-30m", "fb-30m"},
			"duration_ms":         812.5,
			"warm_start": map[string]any{
				"k":         3,
				"neighbors": []string{"wiki-30m", "fb-30m"},
				"priors": []map[string]any{
					{"workload": "wiki-30m", "point": []float64{0.25, 0.5, 1e-9}, "cv_error": 4.2},
					{"workload": "fb-30m", "point": []float64{1, 2, 3}, "cv_error": 5},
				},
			},
		}})
	g.batch(loop, TraceCtx{Trace: 0x1004, RequestID: "req-4"}, 1, 1, 1, 2.5, false)
	tc = TraceCtx{Trace: 0x1005, Parent: 0x77, RequestID: "req-5"}
	batch = g.batch(loop, tc, 3, 3, 4, 1.75, true)
	g.driftCleared(loop, TraceCtx{Trace: tc.Trace, Parent: batch, RequestID: tc.RequestID}, 1.75, 4)
	g.batch(loop, TraceCtx{Trace: 0x1006}, 1, 0, 4, 1.75, false) // sampled away

	// fb-30m: every other verdict, a WAL degradation, and events off the
	// kind/outcome tables or carrying free-form attributes.
	const rares = "fb-30m"
	started = rare(FlightEvent{Trace: 0x2001, Parent: 0x2000, Workload: rares,
		Kind: FlightRebuildStarted, Outcome: OutcomeOK, Attrs: map[string]any{"history": 300}})
	rare(FlightEvent{Trace: 0x2001, Parent: HexID(started), Workload: rares,
		Kind: FlightRebuildRejected, Outcome: "rejected", Attrs: map[string]any{
			"val_error": 9.0, "incumbent_val_error": 8.5, "rounds_to_best": 5,
			"warmstart_priors": 0, "warmstart_neighbors": []string(nil), "duration_ms": 1e3}})
	rare(FlightEvent{Trace: 0x2002, Parent: HexID(started), Workload: rares,
		Kind: FlightRebuildFailed, Outcome: OutcomeFailed,
		Attrs: map[string]any{"error": "history 12 below rebuild minimum 64"}})
	rare(FlightEvent{Trace: 0x2003, Workload: rares, Kind: FlightRebuildTimeout, Outcome: OutcomeTimeout,
		Attrs: map[string]any{"error": "context deadline exceeded", "duration_ms": 30000.25}})
	rare(FlightEvent{Trace: 0x2004, Workload: rares, Kind: FlightRebuildCancel, Outcome: OutcomeCancelled,
		Attrs: map[string]any{"error": "context canceled", "duration_ms": 0.001}})
	rare(FlightEvent{Trace: 0x2005, Parent: 0x2004, Workload: rares, Kind: FlightWALDegraded,
		Outcome: OutcomeFailed, RequestID: "stream-9",
		Attrs: map[string]any{"op": "append_batch", "error": "write wal/0001.seg: <injected> \"disk\" full"}})
	rare(FlightEvent{Workload: rares, Kind: "custom.probe", Outcome: "partial",
		Attrs: map[string]any{"note": "off-table kind & outcome"}})
	rare(FlightEvent{Workload: rares, Kind: FlightObserveBatch, Outcome: OutcomeOK,
		Attrs: map[string]any{"seq": 1}})
	rare(FlightEvent{Workload: rares, Kind: FlightDriftDetected})

	// wiki-30m: a hot workload whose sampled ring wraps; stream records of
	// one request share its request ID.
	const hot = "wiki-30m"
	for i := 0; i < 30; i++ {
		tc := TraceCtx{Trace: uint64(0x3000 + i), RequestID: fmt.Sprintf("stream-%d", i/4)}
		id := g.batch(hot, tc, i%5+1, i%3, i, float64(i)*1.1, i == 21)
		if i == 21 {
			d := g.driftDetected(hot, TraceCtx{Trace: tc.Trace, Parent: id, RequestID: tc.RequestID}, 23.1, 0, 21)
			g.enqueued(hot, TraceCtx{Trace: tc.Trace, Parent: d, RequestID: tc.RequestID})
		}
	}
	return r
}

// goldenTimeline serializes every workload's Events() the way
// /v1/workloads/{id}/timeline does (one JSON document per workload), then
// the recorder's Stats as /debug/flight does.
func goldenTimeline(t *testing.T, r *FlightRecorder) []byte {
	t.Helper()
	type timeline struct {
		Workload string        `json:"workload"`
		Enabled  bool          `json:"enabled"`
		Events   []FlightEvent `json:"events"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range r.Workloads() {
		if err := enc.Encode(timeline{Workload: id, Enabled: r.Enabled(), Events: r.Events(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(r.Stats()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var goldenTimeRE = regexp.MustCompile(`"time":"([^"]*)"`)

// TestFlightTimelineGolden pins the timeline JSON against a file written
// by the map-per-event recorder that preceded the compact slot encoding:
// the output must match byte for byte except for the rendering of each
// "time" value, which must parse to the same instant (the zone a time is
// rendered in may differ). Regenerate with UPDATE_GOLDEN=1 only when the
// timeline shape changes on purpose.
func TestFlightTimelineGolden(t *testing.T) {
	got := goldenTimeline(t, goldenRecorder())
	path := filepath.Join("testdata", "timeline.golden.json")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	gotTimes := goldenTimeRE.FindAllSubmatch(got, -1)
	wantTimes := goldenTimeRE.FindAllSubmatch(want, -1)
	if len(gotTimes) != len(wantTimes) {
		t.Fatalf("timeline has %d events, golden file %d", len(gotTimes), len(wantTimes))
	}
	for i := range wantTimes {
		g, err1 := time.Parse(time.RFC3339Nano, string(gotTimes[i][1]))
		w, err2 := time.Parse(time.RFC3339Nano, string(wantTimes[i][1]))
		if err1 != nil || err2 != nil || !g.Equal(w) {
			t.Errorf("event %d time %s, golden %s", i, gotTimes[i][1], wantTimes[i][1])
		}
	}
	strip := func(b []byte) []byte { return goldenTimeRE.ReplaceAll(b, []byte(`"time":""`)) }
	if g, w := strip(got), strip(want); !bytes.Equal(g, w) {
		t.Errorf("timeline differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", g, w)
	}
}
