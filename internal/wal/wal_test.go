package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// collect replays the log into an owned slice (Records handed to the
// callback reuse scratch buffers).
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	err := l.Replay(func(r Record) error {
		out = append(out, Record{
			Kind:     r.Kind,
			Workload: r.Workload,
			Values:   append([]float64(nil), r.Values...),
		})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Workload != b[i].Workload || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				return false
			}
		}
	}
	return true
}

// runLens are the run lengths the writer tests append in: one record per
// Append, and batches. Log has one writer, so every writer property is
// pinned for both shapes.
var runLens = []int{1, 3}

// appendRuns appends recs in runs of n records, one Append per run.
func appendRuns(t *testing.T, l *Log, recs []Record, n int) {
	t.Helper()
	for i := 0; i < len(recs); i += n {
		if err := l.Append(recs[i:min(i+n, len(recs))]...); err != nil {
			t.Fatalf("Append(records %d..): %v", i, err)
		}
	}
}

// seqRecords returns one-value records for workload "w" carrying from..to-1.
func seqRecords(from, to int) []Record {
	recs := make([]Record, 0, to-from)
	for i := from; i < to; i++ {
		recs = append(recs, Record{Kind: 1, Workload: "w", Values: []float64{float64(i)}})
	}
	return recs
}

func TestRoundtrip(t *testing.T) {
	for _, n := range runLens {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			want := []Record{
				{Kind: 1, Workload: "api", Values: []float64{1, 2, 3}},
				{Kind: 2, Workload: "batch", Values: []float64{4.5}},
				{Kind: 3, Workload: "api", Values: nil},
				{Kind: 1, Workload: "api", Values: []float64{7, 8}},
				{Kind: 1, Workload: "tail", Values: []float64{9}},
			}
			// An empty Append is a no-op.
			if err := l.Append(); err != nil {
				t.Fatalf("empty Append: %v", err)
			}
			if st := l.Stats(); st.Appended != 0 || l.segBytes != int64(len(segmentMagic)) {
				t.Fatalf("empty Append wrote: %+v, %d segment bytes", st, l.segBytes)
			}
			appendRuns(t, l, want, n)
			if st := l.Stats(); st.Appended != int64(len(want)) || st.Segments != 1 {
				t.Fatalf("stats after append: %+v", st)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			got := collect(t, l2)
			// nil vs empty Values both decode to empty.
			want[2].Values = []float64{}
			got[2].Values = append([]float64{}, got[2].Values...)
			if !sameRecords(got, want) {
				t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
			}
			if st := l2.Stats(); st.Replayed != int64(len(want)) || st.TruncatedBytes != 0 {
				t.Fatalf("stats after replay: %+v", st)
			}
			// Appending after replay continues the same segment.
			if err := l2.Append(Record{Kind: 1, Workload: "api", Values: []float64{9}}); err != nil {
				t.Fatalf("append after replay: %v", err)
			}
		})
	}
}

// TestAppendValidation: a run holding one bad workload id is rejected
// whole — nothing written, even the valid records before it — and the
// rejection does not latch the log.
func TestAppendValidation(t *testing.T) {
	for _, n := range runLens {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			l, err := Open(Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for _, bad := range []string{"", strings.Repeat("x", MaxWorkloadLen+1)} {
				run := append(seqRecords(0, n-1), Record{Kind: 1, Workload: bad})
				if err := l.Append(run...); err == nil {
					t.Fatalf("workload id of length %d accepted", len(bad))
				}
			}
			if st := l.Stats(); st.Appended != 0 || l.segBytes != int64(len(segmentMagic)) {
				t.Fatalf("rejected runs wrote: %+v, %d segment bytes", st, l.segBytes)
			}
			// Validation errors must not latch the log.
			if err := l.Append(seqRecords(0, n)...); err != nil {
				t.Fatalf("valid append after validation error: %v", err)
			}
			if st := l.Stats(); st.Appended != int64(n) {
				t.Fatalf("Appended = %d after rejected runs, want %d", st.Appended, n)
			}
		})
	}
}

// TestRotationAndRetention rotates and caps segments under runs of n
// records, then pins that a run never splits across segments: after a
// pad fills most of a segment, two records overflow the cap together
// although the first alone would still fit. One per Append, the first
// lands in the old segment; as one run, both move whole to a fresh one.
func TestRotationAndRetention(t *testing.T) {
	for _, c := range []struct{ n, firstSegRecords int }{{1, 2}, {3, 1}} {
		t.Run(fmt.Sprintf("n=%d", c.n), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, SegmentBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			appendRuns(t, l, seqRecords(0, 20), c.n)
			st := l.Stats()
			if st.Segments < 2 {
				t.Fatalf("expected rotation, got %d segments", st.Segments)
			}
			got := collect(t, l)
			if len(got) != 20 {
				t.Fatalf("replayed %d records across segments, want 20", len(got))
			}
			for i, r := range got {
				if r.Values[0] != float64(i) {
					t.Fatalf("record %d out of order: %v", i, r.Values)
				}
			}
			l.Close()

			// Retention: cap at 2 segments and keep appending.
			l2, err := Open(Options{Dir: dir, SegmentBytes: 64, MaxSegments: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			appendRuns(t, l2, seqRecords(20, 40), c.n)
			if st := l2.Stats(); st.Segments > 2 {
				t.Fatalf("retention kept %d segments, cap 2", st.Segments)
			}
			got = collect(t, l2)
			if len(got) == 0 || got[len(got)-1].Values[0] != 39 {
				t.Fatalf("retained replay lost the newest records: %+v", got)
			}
			// The retained records must be a contiguous suffix.
			for i := 1; i < len(got); i++ {
				if got[i].Values[0] != got[i-1].Values[0]+1 {
					t.Fatalf("retained replay has a hole at %d: %v then %v", i, got[i-1].Values, got[i].Values)
				}
			}

			// A run never splits across segments.
			dir = t.TempDir()
			l3, err := Open(Options{Dir: dir, SegmentBytes: 96})
			if err != nil {
				t.Fatal(err)
			}
			pad := Record{Kind: 1, Workload: "pad", Values: []float64{1, 2, 3, 4}}
			if err := l3.Append(pad); err != nil {
				t.Fatal(err)
			}
			run := []Record{
				{Kind: 1, Workload: "a", Values: []float64{1, 2, 3}},
				{Kind: 1, Workload: "b", Values: []float64{4, 5, 6}},
			}
			appendRuns(t, l3, run, c.n)
			if st := l3.Stats(); st.Segments != 2 {
				t.Fatalf("Segments = %d, want 2 after rotation", st.Segments)
			}
			if err := l3.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "0000000000000001.wal"))
			if err != nil {
				t.Fatal(err)
			}
			var first int
			if _, err := scanFrames(data[len(segmentMagic):], func([]byte) error { first++; return nil }); err != nil {
				t.Fatal(err)
			}
			if first != c.firstSegRecords {
				t.Fatalf("first segment holds %d records, want %d", first, c.firstSegRecords)
			}
			l4, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l4.Close()
			if got, want := collect(t, l4), append([]Record{pad}, run...); !sameRecords(got, want) {
				t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestTornTailMatrix is the byte-level crash matrix: truncate the segment
// at EVERY byte offset and prove Open recovers exactly the longest
// durable prefix of records, never an error, never a phantom record.
func TestTornTailMatrix(t *testing.T) {
	srcDir := t.TempDir()
	l, err := Open(Options{Dir: srcDir})
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int // cumulative frame sizes, in record-area bytes
	total := 0
	for i := 0; i < 5; i++ {
		vals := []float64{float64(i), float64(i) * 2}
		if err := l.Append(Record{Kind: 1, Workload: "wl", Values: vals}); err != nil {
			t.Fatal(err)
		}
		total += frameHeaderLen + payloadHeaderLen + 2 + 2*8
		boundaries = append(boundaries, total)
	}
	l.Close()
	seg, err := os.ReadFile(filepath.Join(srcDir, "0000000000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}

	recordsBelow := func(off int) int { // durable records in a file cut at off bytes
		n := 0
		for _, b := range boundaries {
			if len(segmentMagic)+b <= off {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000001.wal"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lr, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got := collect(t, lr)
		want := recordsBelow(cut)
		if len(got) != want {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(got), want)
		}
		// The log must accept appends after any recovery.
		if err := lr.Append(Record{Kind: 2, Workload: "post", Values: []float64{99}}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		after := collect(t, lr)
		if len(after) != want+1 || after[len(after)-1].Workload != "post" {
			t.Fatalf("cut=%d: post-recovery append not replayable (%d records)", cut, len(after))
		}
		lr.Close()
	}
}

// TestGarbageTail covers a tail that is the right length but wrong bytes
// (a torn rewrite): CRC catches it and recovery truncates.
func TestGarbageTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Kind: 1, Workload: "w", Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "0000000000000001.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x13, 0x37, 0x00, 0x00, 0x01})
	f.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open over garbage tail: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TruncatedBytes != 9 {
		t.Fatalf("TruncatedBytes = %d, want 9", st.TruncatedBytes)
	}
	if got := collect(t, l2); len(got) != 3 {
		t.Fatalf("replayed %d, want 3", len(got))
	}
}

func TestMiddleSegmentCorruptionFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(Record{Kind: 1, Workload: "w", Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("need ≥3 segments, got %d", st.Segments)
	}
	l.Close()

	// Flip a payload byte in the FIRST segment — corruption in a non-tail
	// position, which replay must refuse to skip.
	path := filepath.Join(dir, "0000000000000001.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err) // tail recovery only touches the last segment
	}
	defer l2.Close()
	if err := l2.Replay(func(Record) error { return nil }); err == nil {
		t.Fatal("Replay over a corrupt middle segment succeeded")
	}
}

func TestBadMagicFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: 1, Workload: "w", Values: []float64{1}})
	l.Close()
	path := filepath.Join(dir, "0000000000000001.wal")
	data, _ := os.ReadFile(path)
	copy(data, "NOTAWAL\n")
	os.WriteFile(path, data, 0o644)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a segment with a foreign header")
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		l.Append(Record{Kind: 1, Workload: "w", Values: []float64{float64(i)}})
	}
	boom := errors.New("boom")
	n := 0
	err = l.Replay(func(Record) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 3 {
		t.Fatalf("err=%v after %d records, want boom after 3", err, n)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in       string
		policy   SyncPolicy
		interval time.Duration
		wantErr  bool
	}{
		{"", SyncAlways, 0, false},
		{"always", SyncAlways, 0, false},
		{"off", SyncOff, 0, false},
		{"none", SyncOff, 0, false},
		{"250ms", SyncInterval, 250 * time.Millisecond, false},
		{"1s", SyncInterval, time.Second, false},
		{"-1s", 0, 0, true},
		{"0", 0, 0, true},
		{"bogus", 0, 0, true},
	}
	for _, c := range cases {
		p, d, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSyncPolicy(%q) err=%v, wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && (p != c.policy || d != c.interval) {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v), want (%v, %v)", c.in, p, d, c.policy, c.interval)
		}
	}
}

func TestParseSegmentName(t *testing.T) {
	if seq, ok := parseSegmentName("0000000000000042.wal"); !ok || seq != 42 {
		t.Fatalf("parseSegmentName valid: %d %v", seq, ok)
	}
	for _, bad := range []string{"42.wal", "0000000000000000.wal", "000000000000004x.wal", "0000000000000042.tmp", "manifest.json"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Errorf("parseSegmentName(%q) accepted", bad)
		}
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

// TestConcurrentObserveRotateReplay is the -race workout: many appenders
// rotating across tiny segments while a reader replays concurrently.
func TestConcurrentObserveRotateReplay(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 256, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w))
			for i := 0; i < perWriter; i++ {
				if err := l.Append(Record{Kind: 1, Workload: id, Values: []float64{float64(i)}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	stopRead := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			if err := l.Replay(func(Record) error { return nil }); err != nil {
				t.Errorf("concurrent replay: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stopRead)
	<-readerDone

	counts := map[string]int{}
	err = l.Replay(func(r Record) error { counts[r.Workload]++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if n := counts[string(rune('a'+w))]; n != perWriter {
			t.Fatalf("writer %d: %d records survived, want %d", w, n, perWriter)
		}
	}
}
