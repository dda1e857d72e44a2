// Package wal is an append-only, segmented write-ahead log for
// per-workload observation events — the durability substrate under
// internal/fleet's online evaluator. Every record is length-prefixed and
// CRC32C-checksummed; segments rotate at a size cap; recovery truncates a
// torn tail (a crash mid-write) instead of failing, so a process killed at
// any byte boundary reopens cleanly and replays exactly the records that
// were durable.
//
// Log has one writer, Append, which takes a run of records: a single
// observation and a streamed chunk of hundreds go through the same
// validate → one framed write → one fsync-policy step, so there is one
// write path to reason about and to test.
//
// Failure semantics are latched: the first write or fsync error marks the
// log failed and every later Append returns that error immediately.
// Continuing to append after a torn write would leave durable records
// stranded behind garbage the next recovery truncates away — once the
// disk misbehaves, the log stops trusting it and the caller (the fleet)
// degrades to memory-only ingest.
//
// All I/O goes through the FS seam (fs.go); internal/wal/faultfs
// substitutes an implementation that injects write/fsync/rename failures,
// short writes and slow I/O for crash-matrix testing.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every Append: no acknowledged observation
	// is ever lost, at the price of one fsync per append call.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncInterval, piggy-
	// backed on appends: a crash loses at most the last interval's
	// records. The default operational trade-off.
	SyncInterval
	// SyncOff never fsyncs explicitly (the OS flushes on its own
	// schedule): fastest, loses up to the page-cache window on power
	// failure, still crash-safe against process kills.
	SyncOff
)

// ParseSyncPolicy parses the CLI spelling of a sync policy: "always",
// "off" (or "none"), or a positive duration like "250ms" selecting
// SyncInterval at that cadence.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "", "always":
		return SyncAlways, 0, nil
	case "off", "none":
		return SyncOff, 0, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: fsync policy %q: want \"always\", \"off\" or a positive interval like \"250ms\"", s)
		}
		return SyncInterval, d, nil
	}
}

// Options configure a Log.
type Options struct {
	// Dir is the segment directory (required; created if missing).
	Dir string
	// FS is the filesystem seam (default: the host filesystem).
	FS FS
	// SegmentBytes caps one segment file's size (default 64 MiB). An
	// append that would overflow the cap rotates to a fresh segment
	// first; a single Append larger than the cap still gets written (as
	// its own oversized segment content) rather than rejected or split.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways — durability first,
	// opt into speed).
	Sync SyncPolicy
	// SyncInterval is the cadence for SyncInterval (default 1s).
	SyncInterval time.Duration
	// MaxSegments, when positive, bounds the number of retained segment
	// files: after a rotation the oldest segments beyond the cap are
	// deleted. Replay then restores only the retained suffix of history —
	// acceptable for the fleet's bounded evaluator windows, but leave it
	// 0 (unlimited) when byte-exact replay of the full history matters.
	MaxSegments int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Sync == SyncInterval && o.SyncInterval <= 0 {
		o.SyncInterval = time.Second
	}
	return o
}

// Stats describe what the log has seen since Open.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int
	// Appended counts records durably handed to the OS this process.
	Appended int64
	// Replayed counts records delivered by Replay.
	Replayed int64
	// TruncatedBytes is the torn tail dropped during open recovery.
	TruncatedBytes int64
}

// segment file layout: an 8-byte magic header followed by framed records.
var segmentMagic = []byte("LDWAL\x00\x01\n")

const segmentSuffix = ".wal"

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use; appends serialize on one mutex (the fleet already serializes
// per-workload appends under its evaluator lock, and cross-workload
// ordering is irrelevant to replay, which applies per-workload state).
type Log struct {
	opts Options
	fsys FS

	mu       sync.Mutex
	f        File    // current (last) segment, positioned at its end
	seq      int64   // current segment sequence number
	segBytes int64   // bytes in the current segment
	segments []int64 // live segment sequence numbers, ascending
	buf      []byte  // append scratch: one Append's framed records
	lastSync time.Time
	failed   error // latched first I/O failure
	stats    Stats
}

// Open opens (or initializes) the log in opts.Dir and recovers the tail:
// a torn final record — a crash mid-append — is truncated away, never
// surfaced as an error. Call Replay before the first Append to consume
// the recovered records.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	l := &Log{opts: opts, fsys: opts.FS}
	entries, err := l.fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", opts.Dir, err)
	}
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			l.segments = append(l.segments, seq)
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i] < l.segments[j] })
	if len(l.segments) == 0 {
		if err := l.createSegmentLocked(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	if err := l.recoverTail(l.segments[len(l.segments)-1]); err != nil {
		return nil, err
	}
	return l, nil
}

// recoverTail opens the last segment read-write, scans it, and truncates
// any bytes past the last valid record — the torn remains of an append a
// crash interrupted.
func (l *Log) recoverTail(seq int64) error {
	path := l.segmentPath(seq)
	f, err := l.fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening tail segment: %w", err)
	}
	data, err := readSegmentFile(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: reading tail segment %s: %w", path, err)
	}
	valid := int64(0)
	switch {
	case len(data) < len(segmentMagic):
		// The segment file itself was torn at creation: rebuild it.
		valid = 0
	case !bytes.Equal(data[:len(segmentMagic)], segmentMagic):
		f.Close()
		return fmt.Errorf("wal: segment %s has an unrecognized header", path)
	default:
		n, _ := scanFrames(data[len(segmentMagic):], nil)
		valid = int64(len(segmentMagic) + n)
	}
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing recovered %s: %w", path, err)
		}
		l.stats.TruncatedBytes += int64(len(data)) - valid
	}
	if valid == 0 {
		// The read left the offset at the old EOF; the header goes at 0.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("wal: rewinding %s: %w", path, err)
		}
		if _, err := f.Write(segmentMagic); err != nil {
			f.Close()
			return fmt.Errorf("wal: rewriting header of %s: %w", path, err)
		}
		valid = int64(len(segmentMagic))
	} else if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: seeking to tail of %s: %w", path, err)
	}
	l.f, l.seq, l.segBytes = f, seq, valid
	return nil
}

// createSegmentLocked creates segment seq, writes its header, makes the
// file name durable, and installs it as the current segment.
func (l *Log) createSegmentLocked(seq int64) error {
	f, err := l.fsys.OpenFile(l.segmentPath(seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", seq, err)
	}
	if _, err := f.Write(segmentMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment %d header: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment %d header: %w", seq, err)
	}
	if err := l.fsys.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s after segment create: %w", l.opts.Dir, err)
	}
	l.f, l.seq, l.segBytes = f, seq, int64(len(segmentMagic))
	l.segments = append(l.segments, seq)
	return nil
}

func (l *Log) segmentPath(seq int64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%016d%s", seq, segmentSuffix))
}

func parseSegmentName(name string) (int64, bool) {
	base, ok := strings.CutSuffix(name, segmentSuffix)
	if !ok || len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseInt(base, 10, 64)
	if err != nil || seq <= 0 {
		return 0, false
	}
	return seq, true
}

// Append logs a run of records as one write under the configured fsync
// policy: every record is validated first (a bad one rejects the whole
// run, writes nothing and latches nothing), then framed into the reused
// scratch buffer, handed to the OS in a single Write call, and the fsync
// policy is applied once for the run — one fsync amortized over N records
// under SyncAlways. A run never splits across segments. Records become
// durable in argument order, so a caller that keeps each workload's
// records ordered preserves the per-workload replay order. The first I/O
// failure latches: the run may be torn on disk, so the log refuses all
// further appends with the same error (recovery truncates the tear on the
// next open). Appending is allocation-free in steady state; an empty run
// is a no-op.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	for _, r := range recs {
		if len(r.Workload) == 0 || len(r.Workload) > MaxWorkloadLen {
			return fmt.Errorf("wal: workload id length %d outside 1..%d", len(r.Workload), MaxWorkloadLen)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	l.buf = l.buf[:0]
	for _, r := range recs {
		l.buf = appendFramed(l.buf, r.Kind, r.Workload, r.Values)
	}
	if l.segBytes+int64(len(l.buf)) > l.opts.SegmentBytes && l.segBytes > int64(len(segmentMagic)) {
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			return err
		}
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return l.failed
	}
	l.segBytes += int64(len(l.buf))
	l.stats.Appended += int64(len(recs))
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			l.failed = fmt.Errorf("wal: fsync: %w", err)
			return l.failed
		}
	case SyncInterval:
		if now := time.Now(); now.Sub(l.lastSync) >= l.opts.SyncInterval {
			if err := l.f.Sync(); err != nil {
				l.failed = fmt.Errorf("wal: fsync: %w", err)
				return l.failed
			}
			l.lastSync = now
		}
	}
	return nil
}

// rotateLocked finishes the current segment (fsync — a completed segment
// is always durable, whatever the per-record policy), opens the next one,
// and applies segment retention.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing finished segment %d: %w", l.seq, err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing finished segment %d: %w", l.seq, err)
	}
	if err := l.createSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	if max := l.opts.MaxSegments; max > 0 {
		for len(l.segments) > max {
			victim := l.segments[0]
			if err := l.fsys.Remove(l.segmentPath(victim)); err != nil {
				// Retention is advisory; an undeletable old segment must
				// not poison the append path. Replay tolerates it.
				break
			}
			l.segments = l.segments[1:]
		}
	}
	return nil
}

// Sync forces an fsync of the current segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	l.lastSync = time.Now()
	return nil
}

// Replay delivers every durable record, oldest first, to fn. The Record
// passed to fn reuses scratch buffers — copy what you keep. Call it after
// Open, before the first Append. Corruption in a non-tail position (a
// middle segment that does not scan cleanly) is an error: the log cannot
// know how many records the hole swallowed, so it refuses to silently
// skip them. fn's own error aborts the replay unchanged.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rec Record
	names := make(map[string]string)
	for i, seq := range l.segments {
		data, err := l.readSegmentLocked(seq)
		if err != nil {
			return err
		}
		valid, err := scanFrames(data, func(payload []byte) error {
			if derr := decodePayload(payload, &rec, names); derr != nil {
				return derr
			}
			l.stats.Replayed++
			return fn(rec)
		})
		if err != nil {
			return fmt.Errorf("wal: segment %d: %w", seq, err)
		}
		if valid < len(data) && i < len(l.segments)-1 {
			return fmt.Errorf("wal: segment %d corrupt at offset %d of %d", seq, valid+len(segmentMagic), len(data)+len(segmentMagic))
		}
		// The last segment's tail was already truncated by Open; a short
		// scan here can only mean racing appends, which are valid records.
	}
	return nil
}

// readSegmentLocked reads one segment's record bytes (header stripped).
func (l *Log) readSegmentLocked(seq int64) ([]byte, error) {
	path := l.segmentPath(seq)
	f, err := l.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment %d: %w", seq, err)
	}
	data, err := readSegmentFile(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("wal: reading segment %d: %w", seq, err)
	}
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != string(segmentMagic) {
		return nil, fmt.Errorf("wal: segment %s has an unrecognized header", path)
	}
	return data[len(segmentMagic):], nil
}

// readSegmentFile reads a whole segment with one read into a buffer sized
// to the file (found by seeking to its end), rather than growing a buffer
// chunk by chunk: recovery and replay each read segments of tens of MiB.
// A file that shrank since the seek is returned as far as it goes; the
// offset is left at the end of what was read.
func readSegmentFile(f File) ([]byte, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data := make([]byte, size)
	n, err := io.ReadFull(f, data)
	if err == io.ErrUnexpectedEOF {
		err = nil
	}
	return data[:n], err
}

// Err returns the latched I/O failure, nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Segments = len(l.segments)
	return st
}

// Close fsyncs (best effort) and closes the current segment. The log must
// not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
