package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestFlightRecorderNilSafe pins the disabled-recorder contract: a nil
// *FlightRecorder is valid everywhere instrumented code uses one, so the
// fleet pays a single nil check and no allocations when tracing is off.
func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if id := r.NewTrace(); id != 0 {
		t.Errorf("nil NewTrace = %d, want 0", id)
	}
	if id := r.Record(FlightEvent{Workload: "w", Kind: FlightObserveBatch}); id != 0 {
		t.Errorf("nil Record = %d, want 0", id)
	}
	if id := r.RecordSampled(FlightEvent{Workload: "w", Kind: FlightObserveBatch}); id != 0 {
		t.Errorf("nil RecordSampled = %d, want 0", id)
	}
	if id := r.RecordBatch("w", TraceCtx{Trace: 1}, IngestAttrs{Accepted: 1}, true); id != 0 {
		t.Errorf("nil RecordBatch = %d, want 0", id)
	}
	if id := r.RecordDrift("w", TraceCtx{Trace: 1}, IngestAttrs{}, true); id != 0 {
		t.Errorf("nil RecordDrift = %d, want 0", id)
	}
	if id := r.RecordRebuildEnqueued("w", TraceCtx{Trace: 1}); id != 0 {
		t.Errorf("nil RecordRebuildEnqueued = %d, want 0", id)
	}
	if ev := r.Events("w"); ev != nil {
		t.Errorf("nil Events = %v, want nil", ev)
	}
	if ids := r.Workloads(); ids != nil {
		t.Errorf("nil Workloads = %v, want nil", ids)
	}
	if st := r.Stats(); st.Enabled || st.Recorded != 0 {
		t.Errorf("nil Stats = %+v, want zero value", st)
	}
}

func TestFlightNewTraceUniqueNonZero(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{})
	seen := map[uint64]bool{}
	for i := 0; i < 10_000; i++ {
		id := r.NewTrace()
		if id == 0 {
			t.Fatal("NewTrace minted 0")
		}
		if seen[id] {
			t.Fatalf("NewTrace repeated %x after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestFlightRecordOrderAndIDs(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{Cap: 8})
	trace := r.NewTrace()
	batch := r.Record(FlightEvent{Trace: HexID(trace), Workload: "w", Kind: FlightObserveBatch})
	drift := r.Record(FlightEvent{Trace: HexID(trace), Parent: HexID(batch), Workload: "w", Kind: FlightDriftDetected})
	if batch == 0 || drift == 0 || batch == drift {
		t.Fatalf("event IDs batch=%d drift=%d", batch, drift)
	}
	events := r.Events("w")
	if len(events) != 2 {
		t.Fatalf("Events returned %d events, want 2", len(events))
	}
	if events[0].Kind != FlightObserveBatch || events[1].Kind != FlightDriftDetected {
		t.Fatalf("events out of order: %s, %s", events[0].Kind, events[1].Kind)
	}
	if events[1].Parent != events[0].ID {
		t.Fatalf("drift parent %s != batch id %s", events[1].Parent, events[0].ID)
	}
	if events[0].Trace != HexID(trace) || events[1].Trace != HexID(trace) {
		t.Fatal("trace ID not preserved on recorded events")
	}
	for _, ev := range events {
		if ev.Time.IsZero() {
			t.Fatalf("event %s has no timestamp", ev.Kind)
		}
	}
	if ev := r.Events("other"); ev != nil {
		t.Errorf("unknown workload Events = %v, want nil", ev)
	}
}

// TestFlightRingWrap drives a tiny ring past capacity twice over and
// checks eviction order: the ring keeps the most recent Cap events,
// oldest first.
func TestFlightRingWrap(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{Cap: 4})
	for i := 0; i < 10; i++ {
		r.Record(FlightEvent{Workload: "w", Kind: FlightObserveBatch,
			Attrs: map[string]any{"seq": i}})
	}
	events := r.Events("w")
	if len(events) != 4 {
		t.Fatalf("wrapped ring returned %d events, want 4", len(events))
	}
	for i, ev := range events {
		if want := 6 + i; ev.Attrs["seq"] != want {
			t.Errorf("event %d seq = %v, want %d", i, ev.Attrs["seq"], want)
		}
	}
	if st := r.Stats(); st.Recorded != 10 || st.Workloads["w"] != 4 {
		t.Errorf("Stats after wrap = %+v", st)
	}
}

// TestFlightRingGrowsOnDemand pins a workload's flight ring to what it has
// recorded: it holds fewer than Cap slots until it has recorded Cap events,
// exactly Cap from then on, and events keep their order across every
// growth step and the wrap.
func TestFlightRingGrowsOnDemand(t *testing.T) {
	const capacity = 256
	r := NewFlightRecorder(FlightRecorderOptions{Cap: capacity})
	for k := 1; k <= capacity+capacity/2; k++ {
		r.RecordBatch("w", TraceCtx{}, IngestAttrs{Samples: k}, true)
		held := r.rings["w"].slots.Held()
		if k <= capacity/2 && held >= capacity {
			t.Fatalf("%d events hold %d slots, want fewer than Cap %d", k, held, capacity)
		}
		if k >= capacity && held != capacity {
			t.Fatalf("after %d events the ring holds %d slots, want exactly Cap %d", k, held, capacity)
		}
		if k%37 == 0 || k == capacity+1 {
			events := r.Events("w")
			first := max(1, k-capacity+1)
			if len(events) != k-first+1 {
				t.Fatalf("after %d events: %d resident, want %d", k, len(events), k-first+1)
			}
			for i, ev := range events {
				if got := ev.Attrs["samples"]; got != first+i {
					t.Fatalf("after %d events: event %d has samples %v, want %d", k, i, got, first+i)
				}
			}
		}
	}
}

// TestFlightTailSampling pins the sampling contract: with SampleEvery=3
// only every third routine event is kept (per workload,
// deterministically), while Record — used for drift transitions and
// rebuild lifecycle — always lands, so causal chains never lose their
// anchor events to sampling.
func TestFlightTailSampling(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{Cap: 64, SampleEvery: 3})
	kept := 0
	for i := 0; i < 9; i++ {
		if id := r.RecordSampled(FlightEvent{Workload: "w", Kind: FlightObserveBatch}); id != 0 {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d of 9 sampled events, want 3", kept)
	}
	// Forced events always record regardless of the sampling phase.
	if id := r.Record(FlightEvent{Workload: "w", Kind: FlightDriftDetected}); id == 0 {
		t.Fatal("forced Record sampled away")
	}
	st := r.Stats()
	if st.SampledOut != 6 {
		t.Errorf("SampledOut = %d, want 6", st.SampledOut)
	}
	if st.Workloads["w"] != 4 {
		t.Errorf("resident events = %d, want 4 (3 sampled + 1 forced)", st.Workloads["w"])
	}
	// Sampling state is per workload: a fresh workload starts at phase 1
	// and keeps its first event.
	if id := r.RecordSampled(FlightEvent{Workload: "w2", Kind: FlightObserveBatch}); id == 0 {
		t.Error("first sampled event of a new workload dropped")
	}
}

func TestFlightWorkloadsSorted(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{})
	for _, id := range []string{"zeta", "alpha", "mid"} {
		r.Record(FlightEvent{Workload: id, Kind: FlightObserveBatch})
	}
	got := r.Workloads()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Workloads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Workloads = %v, want %v", got, want)
		}
	}
}

func TestHexIDJSONRoundTrip(t *testing.T) {
	for _, id := range []HexID{0, 1, 0xdeadbeef, HexID(^uint64(0))} {
		b, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var back HexID
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Errorf("HexID %d round-tripped to %d via %s", id, back, b)
		}
	}
	if s := HexID(0).String(); s != "0" {
		t.Errorf("zero HexID String = %q, want \"0\"", s)
	}
	if s := HexID(0xab).String(); s != "00000000000000ab" {
		t.Errorf("HexID String = %q, want 16 hex digits", s)
	}
	// The wire form a timeline client sees: zero trace/parent are omitted,
	// non-zero ones render as hex strings.
	ev := FlightEvent{ID: 2, Trace: 0xff, Workload: "w", Kind: FlightObserveBatch,
		Time: time.Unix(0, 0).UTC()}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["trace"] != "00000000000000ff" {
		t.Errorf("trace rendered as %v", m["trace"])
	}
	if _, present := m["parent"]; present {
		t.Error("zero parent not omitted from JSON")
	}
	var back FlightEvent
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != ev.Trace || back.ID != ev.ID {
		t.Errorf("FlightEvent round-trip: %+v", back)
	}
}

// TestFlightConcurrentRecord is the ring buffer's -race workout:
// recorders, trace minting, timeline reads and stats all run
// concurrently across shared and distinct workloads.
func TestFlightConcurrentRecord(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{Cap: 32, SampleEvery: 2})
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared := "hot"
			own := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				trace := r.NewTrace()
				id := r.RecordSampled(FlightEvent{Trace: HexID(trace), Workload: shared, Kind: FlightObserveBatch})
				r.Record(FlightEvent{Trace: HexID(trace), Parent: HexID(id), Workload: own, Kind: FlightDriftDetected})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			st := r.Stats()
			wantForced := uint64(writers * perWriter)
			if st.Recorded < wantForced {
				t.Fatalf("Recorded = %d, want at least %d forced events", st.Recorded, wantForced)
			}
			if got := len(r.Events("hot")); got != 32 {
				t.Fatalf("hot ring resident = %d, want full cap 32", got)
			}
			return
		default:
			_ = r.Events("hot")
			_ = r.Stats()
			_ = r.Workloads()
		}
	}
}

// TestHexIDUnmarshalForms pins both accepted JSON forms: a quoted string
// is hex (the form MarshalJSON writes), an unquoted number is a legacy
// decimal ID.
func TestHexIDUnmarshalForms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want HexID
		ok   bool
	}{
		{`"00000000000000ff"`, 0xff, true},
		{`"ff"`, 0xff, true},
		{`"123"`, 0x123, true},
		{`"0"`, 0, true},
		{`"ffffffffffffffff"`, HexID(^uint64(0)), true},
		{`123`, 123, true},
		{`0`, 0, true},
		{`18446744073709551615`, HexID(^uint64(0)), true},
		{`ff`, 0, false},
		{`"xyz"`, 0, false},
		{`"10000000000000000"`, 0, false},
		{`18446744073709551616`, 0, false},
		{`-1`, 0, false},
		{`1.5`, 0, false},
		{`""`, 0, false},
	} {
		var h HexID
		err := h.UnmarshalJSON([]byte(tc.in))
		if (err == nil) != tc.ok {
			t.Errorf("UnmarshalJSON(%s) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && h != tc.want {
			t.Errorf("UnmarshalJSON(%s) = %d, want %d", tc.in, h, tc.want)
		}
	}
	// Through encoding/json, as a timeline client decodes an event.
	var ev FlightEvent
	if err := json.Unmarshal([]byte(`{"id":123,"trace":"7b","parent":291}`), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.ID != 123 || ev.Trace != 123 || ev.Parent != 291 {
		t.Errorf("decoded ids = %d/%d/%d, want 123/123/291", ev.ID, ev.Trace, ev.Parent)
	}
}

// TestFlightRecordRoundTrip pins the rare-event contract: an event stored
// through Record comes back from Events with every field intact — its
// free-form attributes, and kinds and outcomes off the slot tables — and
// the caller's time as the same instant.
func TestFlightRecordRoundTrip(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{Cap: 8, SampleEvery: 3})
	at := time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC)
	in := []FlightEvent{
		{Trace: 1, Parent: 2, Workload: "w", Kind: FlightRebuildPromoted, Outcome: OutcomeOK,
			RequestID: "r-1", Time: at, Attrs: map[string]any{"warm_start": map[string]any{"k": 3}}},
		{Workload: "w", Kind: "custom.kind", Outcome: "custom-outcome", Time: at.Add(time.Second)},
		{Workload: "w", Kind: "", Outcome: "", Time: at.Add(2 * time.Second)},
		{Workload: "w", Kind: FlightObserveBatch, Outcome: OutcomeDiverged, Time: at.Add(3 * time.Second)},
	}
	for _, ev := range in {
		if r.Record(ev) == 0 {
			t.Fatal("Record returned no ID")
		}
	}
	out := r.Events("w")
	if len(out) != len(in) {
		t.Fatalf("Events returned %d events, want %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i], in[i]
		if !got.Time.Equal(want.Time) {
			t.Errorf("event %d time %v, want %v", i, got.Time, want.Time)
		}
		if got.ID == 0 {
			t.Errorf("event %d has no ID", i)
		}
		got.ID, got.Time, want.Time = 0, time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, got, want)
		}
	}
}

// TestFlightTypedEventsSampling pins the typed entry points' sampling:
// RecordBatch samples unless forced; RecordDrift and
// RecordRebuildEnqueued always record.
func TestFlightTypedEventsSampling(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 4})
	tc := TraceCtx{Trace: 9, RequestID: "req"}
	a := IngestAttrs{Accepted: 2, Scored: 1, Samples: 5, RollingMAPE: 12.5, ValError: 3}
	kept := 0
	for i := 0; i < 8; i++ {
		if r.RecordBatch("w", tc, a, false) != 0 {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("kept %d of 8 sampled batches, want 2", kept)
	}
	batch := r.RecordBatch("w", tc, a, true)
	drift := r.RecordDrift("w", TraceCtx{Trace: 9, Parent: batch}, a, true)
	enq := r.RecordRebuildEnqueued("w", TraceCtx{Trace: 9, Parent: drift})
	cleared := r.RecordDrift("w", TraceCtx{Trace: 9, Parent: batch}, a, false)
	if batch == 0 || drift == 0 || enq == 0 || cleared == 0 {
		t.Fatalf("forced events sampled away: %d %d %d %d", batch, drift, enq, cleared)
	}
	evs := r.Events("w")
	if len(evs) != 6 {
		t.Fatalf("resident events = %d, want 6", len(evs))
	}
	d := evs[3]
	if d.Kind != FlightDriftDetected || d.Outcome != "drift" || d.Parent != HexID(batch) ||
		d.Attrs["val_error"] != 3.0 || d.Attrs["samples"] != 5 {
		t.Errorf("drift.detected = %+v", d)
	}
	if e := evs[4]; e.Kind != FlightRebuildEnqueued || e.Attrs != nil || e.Parent != HexID(drift) {
		t.Errorf("rebuild.enqueued = %+v", e)
	}
	if c := evs[5]; c.Kind != FlightDriftCleared || c.Outcome != OutcomeOK || c.Attrs["val_error"] != nil {
		t.Errorf("drift.cleared = %+v", c)
	}
	if st := r.Stats(); st.SampledOut != 6 || st.Recorded != 6 {
		t.Errorf("Stats = %+v, want 6 recorded, 6 sampled out", st)
	}
}
