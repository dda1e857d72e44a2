package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// corpusSeeds are the committed seed inputs for FuzzWALRecord: each is the
// record area of a segment (magic stripped) exercising one recovery edge.
func corpusSeeds() map[string][]byte {
	valid := appendFramed(nil, 1, "api", []float64{1.5, -2.25, 3})
	two := appendFramed(append([]byte(nil), valid...), 2, "batch", []float64{9})

	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01 // corrupt the payload, CRC now mismatches

	truncPrefix := valid[:5] // torn inside the length prefix

	tornPayload := valid[:len(valid)-3] // torn inside the payload

	zeroLen := make([]byte, frameHeaderLen) // length 0 < payloadHeaderLen

	giant := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(giant, uint32(maxRecordBytes+1))

	return map[string][]byte{
		"valid-single":    valid,
		"valid-pair":      two,
		"bad-crc":         badCRC,
		"trunc-prefix":    truncPrefix,
		"torn-payload":    tornPayload,
		"zero-length":     zeroLen,
		"giant-length":    giant,
		"empty":           nil,
		"valid-then-torn": append(append([]byte(nil), valid...), truncPrefix...),
	}
}

// TestGenerateFuzzCorpus (re)writes the committed seed corpus under
// testdata/fuzz/FuzzWALRecord. Skipped unless WAL_GEN_CORPUS=1 — it
// documents how the checked-in files were produced.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpusSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALRecord drives frame scanning, payload decoding and tail recovery
// with arbitrary segment bytes. Invariants: scanning never panics and
// never over-consumes; a rescan of the accepted prefix accepts exactly
// that prefix; Open over the same bytes recovers without error and Replay
// agrees with the scanner on the surviving record count.
func FuzzWALRecord(f *testing.F) {
	for _, data := range corpusSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		valid, err := scanFrames(data, nil)
		if err != nil {
			t.Fatalf("scanFrames(nil fn) errored: %v", err)
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("scanFrames consumed %d of %d bytes", valid, len(data))
		}

		var rec Record
		names := make(map[string]string)
		decoded := 0
		consumed, decodeErr := scanFrames(data, func(payload []byte) error {
			if err := decodePayload(payload, &rec, names); err != nil {
				return err
			}
			decoded++
			return nil
		})
		if decodeErr == nil && consumed != valid {
			t.Fatalf("decode scan consumed %d, structural scan %d", consumed, valid)
		}
		if consumed > valid {
			t.Fatalf("decode scan consumed %d past structural scan %d", consumed, valid)
		}

		revalid, _ := scanFrames(data[:valid], nil)
		if revalid != valid {
			t.Fatalf("rescan of accepted prefix consumed %d, want %d", revalid, valid)
		}

		// Tail recovery end-to-end: a single segment holding these bytes
		// must always open (torn tails truncate silently) and replay must
		// deliver exactly the records the scanner accepted — unless a
		// CRC-valid payload is structurally bad, which must fail replay.
		dir := t.TempDir()
		seg := append(append([]byte(nil), segmentMagic...), data...)
		if err := os.WriteFile(filepath.Join(dir, "0000000000000001.wal"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open over fuzzed tail: %v", err)
		}
		defer l.Close()
		replayed := 0
		rerr := l.Replay(func(Record) error { replayed++; return nil })
		if decodeErr != nil {
			if rerr == nil {
				t.Fatal("Replay accepted a structurally bad CRC-valid payload")
			}
			return
		}
		if rerr != nil {
			t.Fatalf("Replay after recovery: %v", rerr)
		}
		if replayed != decoded {
			t.Fatalf("Replay delivered %d records, scanner accepted %d", replayed, decoded)
		}
		if st := l.Stats(); st.TruncatedBytes != int64(len(data)-valid) {
			t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(data)-valid)
		}
	})
}
