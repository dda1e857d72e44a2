package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"sort"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/obs"
)

// logRecord is one JSON log line: its keys in written order plus the
// decoded values.
type logRecord struct {
	keys   []string
	fields map[string]any
}

// orderedLogLines decodes every JSON log line in buf, keeping each line's
// top-level key order (a map alone would lose it).
func orderedLogLines(t *testing.T, buf *bytes.Buffer) []logRecord {
	t.Helper()
	var out []logRecord
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("log output is not JSONL: %v\n%s", err, buf.String())
		}
		rec := logRecord{fields: map[string]any{}}
		if err := json.Unmarshal(raw, &rec.fields); err != nil {
			t.Fatal(err)
		}
		kd := json.NewDecoder(bytes.NewReader(raw))
		kd.Token() // {
		for kd.More() {
			k, _ := kd.Token()
			rec.keys = append(rec.keys, k.(string))
			var skip json.RawMessage
			if err := kd.Decode(&skip); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, rec)
	}
	return out
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRebuildVerdicts pins every externally visible effect of each rebuild
// outcome, one row per outcome: the fleet.rebuilds.* counter, the
// fleet.rebuild span's outcome and attributes, the terminal flight event
// (kind, outcome, parent, attribute keys), the log lines and their fields,
// the backoff and breaker state (a fault arms them, a settled verdict
// clears them, a cancellation leaves them), the evaluator reset (promoted
// and rejected only), and the workload's rebuild counters.
func TestRebuildVerdicts(t *testing.T) {
	failKeys := []string{"duration_ms", "error"}
	verdictKeys := []string{"duration_ms", "incumbent_val_error", "rounds_to_best",
		"val_error", "warmstart_neighbors", "warmstart_priors"}
	buildSpanKeys := []string{"error", "history", "warmstart_priors", "workload"}
	verdictSpanKeys := []string{"history", "incumbent_val_error", "rounds_to_best",
		"val_error", "warmstart_priors", "workload"}
	base := []string{"time", "level", "msg", "component", "workload"}
	logKeys := func(extra ...string) []string { return append(append([]string(nil), base...), extra...) }

	const (
		faulted = "faulted"
		settled = "settled"
		none    = "none"
	)
	type row struct {
		name string
		// budget is the rebuild budget; 0 leaves it unlimited.
		budget time.Duration
		// shortHistory raises MinRebuildHistory above the workload's history
		// once the rebuild is queued.
		shortHistory bool
		build        func(ctx context.Context, cancel context.CancelFunc, promote, reject *core.Model) (*core.Result, error)

		counter      string
		spanOutcome  string
		spanKeys     []string
		spanError    string
		flightKind   string
		flightOut    string
		flightKeys   []string
		effect       string
		reset        bool
		promoted     bool
		rejected     bool
		logs         []string // messages from "rebuild started" on
		level        string   // the terminal line's level
		terminalKeys []string
	}
	boom := errors.New("core: no candidate trained successfully")
	rows := []row{
		{
			name:         "short history",
			shortHistory: true,
			build: func(context.Context, context.CancelFunc, *core.Model, *core.Model) (*core.Result, error) {
				return nil, errors.New("build must not run on a short history")
			},
			counter: "fleet.rebuilds.failed", spanOutcome: obs.OutcomeFailed,
			spanKeys: []string{"error", "history", "workload"}, spanError: "history 68 below rebuild minimum 1048576",
			flightKind: obs.FlightRebuildFailed, flightOut: obs.OutcomeFailed, flightKeys: []string{"error"},
			effect: faulted,
			logs:   []string{"rebuild started", "rebuild breaker opened", "rebuild failed"},
			level:  "ERROR", terminalKeys: logKeys("error"),
		},
		{
			name: "build error",
			build: func(context.Context, context.CancelFunc, *core.Model, *core.Model) (*core.Result, error) {
				return nil, boom
			},
			counter: "fleet.rebuilds.failed", spanOutcome: obs.OutcomeFailed,
			spanKeys: buildSpanKeys, spanError: boom.Error(),
			flightKind: obs.FlightRebuildFailed, flightOut: obs.OutcomeFailed, flightKeys: failKeys,
			effect: faulted,
			logs:   []string{"rebuild started", "rebuild breaker opened", "rebuild failed"},
			level:  "ERROR", terminalKeys: logKeys("duration_ms", "error"),
		},
		{
			name: "no model",
			build: func(context.Context, context.CancelFunc, *core.Model, *core.Model) (*core.Result, error) {
				return &core.Result{}, nil
			},
			counter: "fleet.rebuilds.failed", spanOutcome: obs.OutcomeFailed,
			spanKeys: buildSpanKeys, spanError: "build returned no model",
			flightKind: obs.FlightRebuildFailed, flightOut: obs.OutcomeFailed, flightKeys: failKeys,
			effect: faulted,
			logs:   []string{"rebuild started", "rebuild breaker opened", "rebuild failed"},
			level:  "ERROR", terminalKeys: logKeys("duration_ms", "error"),
		},
		{
			name:   "budget timeout",
			budget: 20 * time.Millisecond,
			build: func(ctx context.Context, _ context.CancelFunc, _, _ *core.Model) (*core.Result, error) {
				<-ctx.Done()
				return nil, fmt.Errorf("interrupted: %w", ctx.Err())
			},
			counter: "fleet.rebuilds.timeout", spanOutcome: obs.OutcomeTimeout,
			spanKeys: buildSpanKeys, spanError: "interrupted: context deadline exceeded",
			flightKind: obs.FlightRebuildTimeout, flightOut: obs.OutcomeTimeout, flightKeys: failKeys,
			effect: faulted,
			logs:   []string{"rebuild started", "rebuild breaker opened", "rebuild timed out"},
			level:  "WARN", terminalKeys: logKeys("duration_ms", "error"),
		},
		{
			name: "cancelled",
			build: func(ctx context.Context, cancel context.CancelFunc, _, _ *core.Model) (*core.Result, error) {
				cancel()
				return nil, ctx.Err()
			},
			counter: "fleet.rebuilds.cancelled", spanOutcome: obs.OutcomeCancelled,
			spanKeys: buildSpanKeys, spanError: "context canceled",
			flightKind: obs.FlightRebuildCancel, flightOut: obs.OutcomeCancelled, flightKeys: failKeys,
			effect: none,
			logs:   []string{"rebuild started", "rebuild cancelled"},
			level:  "INFO", terminalKeys: logKeys("duration_ms"),
		},
		{
			name: "promoted",
			build: func(_ context.Context, _ context.CancelFunc, promote, _ *core.Model) (*core.Result, error) {
				return stubResult(promote), nil
			},
			counter: "fleet.rebuilds.ok", spanOutcome: obs.OutcomeOK, spanKeys: verdictSpanKeys,
			flightKind: obs.FlightRebuildPromoted, flightOut: obs.OutcomeOK, flightKeys: verdictKeys,
			effect: settled, reset: true, promoted: true,
			logs:  []string{"rebuild started", "model promoted", "rebuild breaker closed", "rebuild promoted"},
			level: "INFO", terminalKeys: logKeys("duration_ms", "val_error", "incumbent_val_error",
				"warmstart_priors", "rounds_to_best"),
		},
		{
			name: "rejected",
			build: func(_ context.Context, _ context.CancelFunc, _, reject *core.Model) (*core.Result, error) {
				return stubResult(reject), nil
			},
			counter: "fleet.rebuilds.rejected", spanOutcome: "rejected", spanKeys: verdictSpanKeys,
			flightKind: obs.FlightRebuildRejected, flightOut: "rejected", flightKeys: verdictKeys,
			effect: settled, reset: true, rejected: true,
			logs:  []string{"rebuild started", "rebuild breaker closed", "rebuild rejected: incumbent keeps serving"},
			level: "INFO", terminalKeys: logKeys("duration_ms", "val_error", "incumbent_val_error"),
		},
	}
	counters := []string{"fleet.rebuilds.ok", "fleet.rebuilds.rejected", "fleet.rebuilds.failed",
		"fleet.rebuilds.timeout", "fleet.rebuilds.cancelled"}

	promote := tinyModel(t, 2)
	promote.ValError = 0 // beats any incumbent
	reject := tinyModel(t, 3)
	reject.ValError = 1e9 // loses to any incumbent
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var buf bytes.Buffer
			opts := flightOptions(t, "")
			opts.Trace = obs.NewTrace()
			opts.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
			opts.RebuildBudget = r.budget
			opts.RebuildBreakerFailures = 1 // one fault opens the breaker
			f, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f.buildFn = func(bctx context.Context, _ core.Config, _, _ []float64) (*core.Result, error) {
				return r.build(bctx, cancel, promote, reject)
			}
			old := tinyModel(t, 1)
			if err := f.Add("w", old); err != nil {
				t.Fatal(err)
			}
			if st := driftWorkload(t, f, "w"); !st.Drift || !st.RebuildQueued {
				t.Fatalf("status %+v, want drift + queued rebuild", st)
			}
			before, _ := f.Status("w")
			e := f.get("w")
			if r.shortHistory {
				f.opts.MinRebuildHistory = 1 << 20
			}
			// A settled or cancelled verdict starts from an armed backoff and
			// an open breaker; a fault starts from a clean slate.
			const armed = int64(1) << 62
			if r.effect != faulted {
				e.failStreak.Store(3)
				e.nextAttempt.Store(armed)
				e.breakerUntil.Store(armed)
				e.breakerOpen.Store(true)
				f.m.breakerOpen.Add(1)
			}
			buf.Reset()

			t0 := time.Now().UnixNano()
			if n := f.RunQueuedRebuilds(ctx); n != 1 {
				t.Fatalf("ran %d rebuilds, want 1", n)
			}
			t1 := time.Now().UnixNano()

			reg := f.opts.Metrics
			for _, name := range counters {
				want := int64(0)
				if name == r.counter {
					want = 1
				}
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}

			spans := opts.Trace.Named("fleet.rebuild")
			if len(spans) != 1 {
				t.Fatalf("recorded %d fleet.rebuild spans, want 1", len(spans))
			}
			sp := spans[0]
			if sp.Outcome != r.spanOutcome {
				t.Errorf("span outcome = %q, want %q", sp.Outcome, r.spanOutcome)
			}
			if got := sortedKeys(sp.Attrs); !reflect.DeepEqual(got, r.spanKeys) {
				t.Errorf("span attr keys = %v, want %v", got, r.spanKeys)
			}
			if r.spanError != "" && sp.Attr("error") != r.spanError {
				t.Errorf("span error = %v, want %q", sp.Attr("error"), r.spanError)
			}

			events := f.flight.Events("w")
			started := eventsOfKind(events, obs.FlightRebuildStarted)
			if len(started) != 1 {
				t.Fatalf("recorded %d rebuild.started events, want 1", len(started))
			}
			queued := eventsOfKind(events, obs.FlightRebuildEnqueued)
			if len(queued) != 1 || started[0].Parent != queued[0].Parent || started[0].Trace != queued[0].Trace {
				t.Errorf("rebuild.started parent=%s trace=%s, want the drift verdict rebuild.enqueued hangs off",
					started[0].Parent, started[0].Trace)
			}
			if got := sortedKeys(started[0].Attrs); !reflect.DeepEqual(got, []string{"history"}) {
				t.Errorf("rebuild.started attr keys = %v, want [history]", got)
			}
			last := events[len(events)-1]
			if last.Kind != r.flightKind || last.Outcome != r.flightOut {
				t.Errorf("terminal flight event %s/%s, want %s/%s", last.Kind, last.Outcome, r.flightKind, r.flightOut)
			}
			if last.Parent != started[0].ID || last.Trace != started[0].Trace {
				t.Errorf("terminal event parent=%s trace=%s, want parent=%s trace=%s (rebuild.started)",
					last.Parent, last.Trace, started[0].ID, started[0].Trace)
			}
			if got := sortedKeys(last.Attrs); !reflect.DeepEqual(got, r.flightKeys) {
				t.Errorf("terminal event attr keys = %v, want %v", got, r.flightKeys)
			}
			if r.spanError != "" && last.Attrs["error"] != r.spanError {
				t.Errorf("terminal event error = %v, want %q", last.Attrs["error"], r.spanError)
			}

			lines := orderedLogLines(t, &buf)
			var msgs []string
			for _, l := range lines {
				msgs = append(msgs, l.fields["msg"].(string))
			}
			if !reflect.DeepEqual(msgs, r.logs) {
				t.Fatalf("log messages = %q, want %q", msgs, r.logs)
			}
			term := lines[len(lines)-1]
			if term.fields["level"] != r.level {
				t.Errorf("terminal log level = %v, want %s", term.fields["level"], r.level)
			}
			if !reflect.DeepEqual(term.keys, r.terminalKeys) {
				t.Errorf("terminal log keys = %v, want %v", term.keys, r.terminalKeys)
			}
			if r.spanError != "" && term.fields["error"] != nil && term.fields["error"] != r.spanError {
				t.Errorf("terminal log error = %v, want %q", term.fields["error"], r.spanError)
			}

			streak, next := e.failStreak.Load(), e.nextAttempt.Load()
			open, gauge := e.breakerOpen.Load(), reg.Gauge("fleet.rebuild.breaker_open").Value()
			switch r.effect {
			case faulted:
				delay := backoffDelay(f.opts.RebuildBackoff, f.opts.RebuildBackoffMax, 1, "w").Nanoseconds()
				if streak != 1 || next < t0+delay || next > t1+delay {
					t.Errorf("streak=%d nextAttempt=%d, want 1 and now+%v", streak, next, time.Duration(delay))
				}
				until := e.breakerUntil.Load()
				cool := f.opts.RebuildBreakerCooldown.Nanoseconds()
				if !open || gauge != 1 || until < t0+cool || until > t1+cool {
					t.Errorf("breaker open=%v gauge=%d until=%d, want an open breaker for the cooldown", open, gauge, until)
				}
				if got := reg.Counter("fleet.rebuilds.breaker_opened").Value(); got != 1 {
					t.Errorf("breaker_opened = %d, want 1", got)
				}
			case settled:
				if streak != 0 || next != 0 || open || gauge != 0 {
					t.Errorf("streak=%d nextAttempt=%d open=%v gauge=%d, want all cleared", streak, next, open, gauge)
				}
			case none:
				if streak != 3 || next != armed || !open || gauge != 1 || e.breakerUntil.Load() != armed {
					t.Errorf("streak=%d nextAttempt=%d open=%v gauge=%d, want them untouched", streak, next, open, gauge)
				}
			}

			ws, _ := f.Status("w")
			if r.reset {
				if ws.Samples != 0 || ws.Drift {
					t.Errorf("evaluator not reset: samples=%d drift=%v", ws.Samples, ws.Drift)
				}
			} else if ws.Samples != before.Samples || ws.Drift != before.Drift {
				t.Errorf("evaluator samples=%d drift=%v, want untouched %d/%v", ws.Samples, ws.Drift, before.Samples, before.Drift)
			}
			if ws.Rebuilds != before.Rebuilds+1 || ws.Rebuilding {
				t.Errorf("rebuilds=%d rebuilding=%v, want %d and cleared", ws.Rebuilds, ws.Rebuilding, before.Rebuilds+1)
			}
			wantPromotions, wantRejections := int64(0), int64(0)
			if r.promoted {
				wantPromotions = 1
			}
			if r.rejected {
				wantRejections = 1
			}
			if ws.Promotions != wantPromotions || ws.RejectedPromotions != wantRejections {
				t.Errorf("promotions=%d rejected=%d, want %d/%d", ws.Promotions, ws.RejectedPromotions, wantPromotions, wantRejections)
			}
			wantModel := old
			if r.promoted {
				wantModel = promote
			}
			if m, _ := f.Model("w"); m != wantModel {
				t.Error("serving model is not the one the verdict leaves serving")
			}
		})
	}
}
