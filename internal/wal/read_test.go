package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// segmentFixture appends recs to a fresh log and returns its single
// segment's bytes plus the offset at which each record's frame ends.
func segmentFixture(t testing.TB, recs []Record) (seg []byte, ends []int) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	off := len(segmentMagic)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		off += len(appendFramed(nil, r.Kind, r.Workload, r.Values))
		ends = append(ends, off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err = os.ReadFile(filepath.Join(dir, "0000000000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != off {
		t.Fatalf("segment is %d bytes, frames end at %d", len(seg), off)
	}
	return seg, ends
}

// TestOpenRecoversTail opens a segment cut short in every way a crash can
// leave it — empty, header only, and the last frame torn at every byte —
// and checks where recovery truncates the file, what it reports as
// truncated, and exactly which records replay.
func TestOpenRecoversTail(t *testing.T) {
	recs := []Record{
		{Kind: 1, Workload: "w0001-wiki", Values: []float64{1.5, -2, 3e10}},
		{Kind: 2, Workload: "w0002-lcg", Values: []float64{4}},
		{Kind: 3, Workload: "w0003-azure", Values: []float64{5, 6}},
	}
	seg, ends := segmentFixture(t, recs)
	lastStart := ends[len(ends)-2]

	type tc struct {
		name      string
		file      []byte
		size      int // file size after recovery
		truncated int64
		replayed  []Record
	}
	cases := []tc{
		{"empty file", nil, len(segmentMagic), 0, nil},
		{"magic only", seg[:len(segmentMagic)], len(segmentMagic), 0, nil},
		{"whole segment", seg, len(seg), 0, recs},
	}
	for cut := lastStart + 1; cut < len(seg); cut++ {
		cases = append(cases, tc{fmt.Sprintf("last frame torn at byte %d", cut-lastStart),
			seg[:cut], lastStart, int64(cut - lastStart), recs[:len(recs)-1]})
	}
	for _, c := range cases {
		dir := t.TempDir()
		path := filepath.Join(dir, "0000000000000001.wal")
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("%s: Open: %v", c.name, err)
		}
		if got := l.Stats().TruncatedBytes; got != c.truncated {
			t.Errorf("%s: TruncatedBytes %d, want %d", c.name, got, c.truncated)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(c.size) {
			t.Errorf("%s: recovered file size %v (err %v), want %d", c.name, fi.Size(), err, c.size)
		}
		if got := collect(t, l); !sameRecords(got, c.replayed) {
			t.Errorf("%s: replayed %+v, want %+v", c.name, got, c.replayed)
		}
		l.Close()
	}
}

// seekFile is a File whose Seek can report a stale end offset or fail.
type seekFile struct {
	File
	end     int64 // offset Seek(0, io.SeekEnd) reports
	failEnd bool  // Seek(0, io.SeekEnd) fails
	failSet bool  // Seek(0, io.SeekStart) fails
}

var errSeek = errors.New("seek failed")

func (f *seekFile) Seek(offset int64, whence int) (int64, error) {
	switch {
	case whence == io.SeekEnd && f.failEnd, whence == io.SeekStart && f.failSet:
		return 0, errSeek
	case whence == io.SeekEnd:
		return f.end, nil
	}
	return f.File.Seek(offset, whence)
}

// TestReadSegmentFile covers the sized read's edge cases: a file that is
// shorter than its end offset said (it shrank between the seek and the
// read) is returned as far as it goes, and a failing seek is an error.
func TestReadSegmentFile(t *testing.T) {
	content := []byte("LDWAL\x00\x01\nsome frames")
	path := filepath.Join(t.TempDir(), "seg")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		f       seekFile
		want    []byte
		wantErr bool
	}{
		{"exact", seekFile{end: int64(len(content))}, content, false},
		{"shrank", seekFile{end: int64(len(content)) + 100}, content, false},
		{"seek to end fails", seekFile{failEnd: true}, nil, true},
		{"seek to start fails", seekFile{end: int64(len(content)), failSet: true}, nil, true},
	} {
		osf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		c.f.File = osf
		got, err := readSegmentFile(&c.f)
		osf.Close()
		if (err != nil) != c.wantErr || !bytes.Equal(got, c.want) {
			t.Errorf("%s: got %q, %v; want %q (error %t)", c.name, got, err, c.want, c.wantErr)
		}
	}
}

// bigSegmentDir writes a log whose single segment holds at least minBytes
// of fleet-shaped records (ten-byte workload IDs, 32 values each) and
// returns its directory and the segment's size.
func bigSegmentDir(tb testing.TB, minBytes int64) (string, int64) {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOff, SegmentBytes: 2 * minBytes})
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]float64, 32)
	batch := make([]Record, 64)
	size := int64(len(segmentMagic))
	for i := 0; size < minBytes; i++ {
		for j := range batch {
			for k := range vals {
				vals[k] = float64(i*len(batch) + j + k)
			}
			batch[j] = Record{Kind: 1, Workload: fmt.Sprintf("w%04d-wiki", j), Values: append([]float64(nil), vals...)}
			size += int64(len(appendFramed(nil, 1, batch[j].Workload, vals)))
		}
		if err := l.Append(batch...); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 {
		tb.Fatalf("%d segments, want 1", st.Segments)
	}
	return dir, size
}

// openReplay opens the log in dir and replays it, counting records.
func openReplay(tb testing.TB, dir string) int {
	l, err := Open(Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
		tb.Fatal(err)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestOpenReplayAllocation pins the read path: recovery and replay each
// read the segment once into a buffer of its exact size, so opening and
// replaying an 8 MiB segment allocates little more than twice its bytes
// (a growing read buffer costs several times that); and replay interns
// workload IDs, so the number of allocations is bounded by the distinct
// workloads (64 here) plus Open's own, not by the records (about 30,000).
func TestOpenReplayAllocation(t *testing.T) {
	dir, size := bigSegmentDir(t, 8<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := openReplay(t, dir)
	runtime.ReadMemStats(&after)
	if n == 0 {
		t.Fatal("replayed no records")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(alloc) / float64(size); ratio > 2.2 {
		t.Fatalf("Open+Replay of a %d-byte segment allocated %d bytes (%.2f×), want at most 2.2×", size, alloc, ratio)
	}
	const workloads, openAllocs = 64, 64 // bigSegmentDir's IDs; Open, the map and its growth
	if mallocs := after.Mallocs - before.Mallocs; mallocs > workloads+openAllocs {
		t.Fatalf("Open+Replay of %d records made %d allocations, want at most %d", n, mallocs, workloads+openAllocs)
	}
}

// BenchmarkWALOpenReplay opens and replays an 8 MiB segment — the WAL's
// share of a fleet restart.
func BenchmarkWALOpenReplay(b *testing.B) {
	dir, size := bigSegmentDir(b, 8<<20)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openReplay(b, dir)
	}
}
