package wal_test

// Black-box tests pairing the log with its fault-injection filesystem:
// sync-policy accounting, latched failure after injected write/fsync
// errors, and recovery over a torn (short) final write.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"loaddynamics/internal/wal"
	"loaddynamics/internal/wal/faultfs"
)

// records returns n one-value records for workload "w".
func records(n int) []wal.Record {
	recs := make([]wal.Record, n)
	for i := range recs {
		recs[i] = wal.Record{Kind: 1, Workload: "w", Values: []float64{float64(i)}}
	}
	return recs
}

// TestSyncPolicyAccounting pins fsyncs per Append under each policy, for
// single records and batches alike: the policy runs once per Append,
// however many records it carries. The latch leg pins that the first
// failed write latches the log for every later Append, whatever its size.
func TestSyncPolicyAccounting(t *testing.T) {
	const calls = 10
	cases := []struct {
		name      string
		opts      wal.Options
		wantSyncs int
	}{
		{"always", wal.Options{Sync: wal.SyncAlways}, calls},
		{"off", wal.Options{Sync: wal.SyncOff}, 0},
		// lastSync starts at the zero time, so the first append syncs and
		// the hour-long interval suppresses the other nine.
		{"interval", wal.Options{Sync: wal.SyncInterval, SyncInterval: time.Hour}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range []int{1, 64} {
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					ffs := faultfs.New(nil)
					opts := c.opts
					opts.Dir, opts.FS = t.TempDir(), ffs
					l, err := wal.Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer l.Close()
					recs := records(n)
					_, before := ffs.Counts()
					for i := 0; i < calls; i++ {
						if err := l.Append(recs...); err != nil {
							t.Fatal(err)
						}
					}
					if _, after := ffs.Counts(); after-before != c.wantSyncs {
						t.Fatalf("%d syncs for %d appends of %d records, want %d", after-before, calls, n, c.wantSyncs)
					}
					if st := l.Stats(); st.Appended != int64(calls*n) {
						t.Fatalf("Appended = %d, want %d", st.Appended, calls*n)
					}
					if c.opts.Sync != wal.SyncOff {
						return
					}
					// Explicit Sync still works under SyncOff.
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
					if _, after := ffs.Counts(); after != before+1 {
						t.Fatal("explicit Sync did not reach the file")
					}
				})
			}
		})
	}

	t.Run("latch", func(t *testing.T) {
		for _, n := range []int{1, 64} {
			t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
				ffs := faultfs.New(nil)
				l, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: ffs})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				recs := records(n)
				ffs.FailWrites(0, 0)
				first := l.Append(recs...)
				if first == nil {
					t.Fatal("append over failing disk succeeded")
				}
				ffs.Reset()
				if err := l.Append(recs...); err != first {
					t.Fatalf("same-size append after latch: got %v, want the latched %v", err, first)
				}
				if err := l.Append(recs[0]); err != first {
					t.Fatalf("single append after latch: got %v, want the latched %v", err, first)
				}
			})
		}
	})
}

func TestLatchedWriteFailure(t *testing.T) {
	ffs := faultfs.New(nil)
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	ffs.FailWrites(0, 0)
	first := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{2}})
	if !errors.Is(first, faultfs.ErrInjected) {
		t.Fatalf("injected write error not surfaced: %v", first)
	}
	// The failure latches: later appends fail fast with the same error,
	// even after the disk "heals".
	ffs.Reset()
	if err := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{3}}); err != first {
		t.Fatalf("append after latched failure: got %v, want the latched %v", err, first)
	}
	if l.Err() != first {
		t.Fatal("Err() did not report the latched failure")
	}
}

func TestLatchedFsyncFailure(t *testing.T) {
	ffs := faultfs.New(nil)
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: ffs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncs(0)
	if err := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{2}}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("injected fsync error not surfaced: %v", err)
	}
	if l.Err() == nil {
		t.Fatal("fsync failure did not latch")
	}
}

// TestTornWriteRecovery injects a short write — only part of a record
// reaches the file before the "crash" — and proves reopen truncates the
// tear and replays exactly the durable prefix.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	l, err := wal.Open(wal.Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailWrites(0, 5) // next record tears after 5 bytes
	if err := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{3}}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn write not surfaced: %v", err)
	}
	l.Close()

	l2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen over torn write: %v", err)
	}
	defer l2.Close()
	var n int
	if err := l2.Replay(func(r wal.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records after torn write, want 3", n)
	}
	if st := l2.Stats(); st.TruncatedBytes != 5 {
		t.Fatalf("TruncatedBytes = %d, want 5", st.TruncatedBytes)
	}
}

// TestSegmentCreateDurability asserts the ordering protocol for a new
// segment: header write → file fsync → parent directory fsync.
func TestSegmentCreateDurability(t *testing.T) {
	ffs := faultfs.New(nil)
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wrote, synced, dirSynced int = -1, -1, -1
	for i, op := range ffs.Ops() {
		switch {
		case wrote < 0 && len(op) > 6 && op[:6] == "write:":
			wrote = i
		case synced < 0 && len(op) > 5 && op[:5] == "sync:":
			synced = i
		case dirSynced < 0 && len(op) > 8 && op[:8] == "syncdir:":
			dirSynced = i
		}
	}
	if !(wrote >= 0 && synced > wrote && dirSynced > synced) {
		t.Fatalf("segment create op order wrong: write=%d sync=%d syncdir=%d\nops: %v",
			wrote, synced, dirSynced, ffs.Ops())
	}
}

func TestSlowIO(t *testing.T) {
	ffs := faultfs.New(nil)
	ffs.SetDelay(2 * time.Millisecond)
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: ffs, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := l.Append(wal.Record{Kind: 1, Workload: "w", Values: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("slow-I/O delay not applied: 5 writes in %v", elapsed)
	}
}
