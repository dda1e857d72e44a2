package fleet

// WAL integration: every evaluator mutation (observation batch, served
// forecast horizon, post-rebuild reset) is appended to a write-ahead log
// before the in-memory state changes, and boot replays the log so a
// restart restores observation history, rolling MAPE/RMSE windows and
// drift state to exactly what the crash interrupted.
//
// Every mutation is a wal.Record, logged by walAppend and applied by
// applyLocked inside the workload's shard lock (entry.shard.mu), so the
// per-workload record order in the log equals the evaluator mutation
// order, and replay runs the same apply code the live process ran — the
// two properties replay parity rests on. Cross-workload interleaving is
// irrelevant: replay applies per-workload state.
//
// Failure policy: a WAL open error fails Open (a misconfigured durability
// dir should not boot silently non-durable), but a runtime append failure
// — or a corrupt middle segment discovered during replay — degrades the
// fleet to memory-only ingest instead of failing requests: the
// fleet.wal.degraded gauge flips to 1, fleet.wal.append_failures counts,
// and one warning is logged on the transition. Durability is an SLO, not
// a correctness precondition for serving.

import (
	"loaddynamics/internal/obs"
	"loaddynamics/internal/wal"
)

// WAL record kinds (the wal package treats kind as an opaque byte).
const (
	walKindObserve  byte = 1 // values = one observation batch
	walKindForecast byte = 2 // values = the served forecast horizon
	walKindReset    byte = 3 // evaluator reset after a rebuild verdict
)

// walAppend logs evaluator records as one wal.Append — a single commit or
// a whole streamed chunk. Callers hold the shard lock of every record's
// workload. With no WAL configured this is a single nil check — the
// observe hot path stays allocation-free. An append error latches
// degraded mode, counted per record; the in-memory mutation proceeds
// regardless, so no request is ever dropped for a durability failure.
func (f *Fleet) walAppend(tc obs.TraceCtx, recs ...wal.Record) {
	if f.wal == nil || f.walFailed.Load() {
		return
	}
	if err := f.wal.Append(recs...); err != nil {
		f.m.walAppendFailures.Add(int64(len(recs)))
		f.degradeWAL("append", recs[0].Workload, err, tc)
	}
}

// degradeWAL latches memory-only mode (idempotent; first caller logs,
// records the wal.degraded flight event with the latched error string, and
// emits a span event — so the durability transition shows up on the
// triggering workload's timeline and in the span export, not just as a
// gauge flip).
func (f *Fleet) degradeWAL(op, workload string, err error, tc obs.TraceCtx) {
	if f.walFailed.CompareAndSwap(false, true) {
		f.m.walDegraded.Set(1)
		f.log.Warn("wal failed; continuing with in-memory ingest only (durability degraded)",
			"op", op, "error", err.Error())
		if f.flight != nil {
			f.flight.Record(obs.FlightEvent{
				Trace:     obs.HexID(tc.Trace),
				Parent:    obs.HexID(tc.Parent),
				Workload:  workload,
				Kind:      obs.FlightWALDegraded,
				Outcome:   obs.OutcomeFailed,
				RequestID: tc.RequestID,
				Attrs:     map[string]any{"op": op, "error": err.Error()},
			})
		}
		f.opts.Trace.Event("fleet.wal.degraded", obs.OutcomeFailed, map[string]any{
			"op":       op,
			"workload": workload,
			"error":    err.Error(),
			"trace_id": obs.HexID(tc.Trace).String(),
		})
	}
}

// DurabilityDegraded reports whether a configured WAL has failed and the
// fleet is ingesting memory-only. Always false when no WAL is configured —
// memory-only by choice is not degradation.
func (f *Fleet) DurabilityDegraded() bool {
	return f.wal != nil && f.walFailed.Load()
}

// WALStats returns the log's counters (zero Stats when no WAL).
func (f *Fleet) WALStats() wal.Stats {
	if f.wal == nil {
		return wal.Stats{}
	}
	return f.wal.Stats()
}

// replayWAL restores evaluator state from the log at boot. Each record
// goes through applyLocked, the function live commits and streamed chunks
// run, and observe records through noteIngest with live=false, so
// counters and gauges (fleet.observations, fleet.drift, per-workload
// rolling MAPE) end up bit-identical to a process that had ingested the
// same records, while logs and rebuild enqueues stay suppressed. Records
// for workloads the manifest no longer lists, and record kinds this build
// does not know, are counted as skipped.
func (f *Fleet) replayWAL() error {
	return f.wal.Replay(func(rec wal.Record) error {
		f.m.walReplayed.Inc()
		e := f.get(rec.Workload)
		if e == nil {
			f.m.walReplaySkipped.Inc()
			return nil
		}
		var res ingestResult
		e.shard.mu.Lock()
		ok := f.applyLocked(e, rec, &res)
		e.shard.mu.Unlock()
		switch {
		case !ok:
			f.m.walReplaySkipped.Inc() // future record kind: ignore, don't fail the boot
		case rec.Kind == walKindObserve:
			f.noteIngest(&res, false)
		}
		return nil
	})
}
