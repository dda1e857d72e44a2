package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Record is one logged event: a kind byte the caller interprets (the
// fleet logs observations, served forecast horizons and evaluator
// resets), the workload it belongs to, and its values.
//
// A Record handed to a Replay callback reuses the log's scratch buffers —
// it is only valid for the duration of the call; copy Workload/Values to
// retain them.
type Record struct {
	Kind     byte
	Workload string
	Values   []float64
}

// MaxWorkloadLen bounds the workload identifier in a record (it is
// length-prefixed with one byte on disk).
const MaxWorkloadLen = 255

// maxRecordBytes bounds one framed record. A length prefix beyond it is
// treated as corruption, so a flipped bit in the length field cannot make
// recovery attempt a multi-gigabyte read.
const maxRecordBytes = 16 << 20

// frameHeaderLen is the per-record framing overhead: u32 payload length +
// u32 CRC32C of the payload, both little-endian.
const frameHeaderLen = 8

// payloadHeaderLen is the fixed part of a payload: kind (u8), workload
// length (u8), value count (u32).
const payloadHeaderLen = 6

// castagnoli is the CRC32C polynomial table — the same checksum modern
// storage systems use, with hardware support on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFramed appends the framed encoding of one record to dst:
//
//	u32 len | u32 crc32c(payload) | payload
//	payload = kind u8 | idLen u8 | id | count u32 | count × float64 (LE bits)
func appendFramed(dst []byte, kind byte, workload string, values []float64) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = append(dst, kind, byte(len(workload)))
	dst = append(dst, workload...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(values)))
	dst = append(dst, n[:]...)
	var v [8]byte
	for _, x := range values {
		binary.LittleEndian.PutUint64(v[:], math.Float64bits(x))
		dst = append(dst, v[:]...)
	}
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodePayload parses a CRC-verified payload into rec, reusing rec's
// Values capacity and interning the workload ID in names, so a replay
// allocates one string per distinct workload rather than one per record.
// A payload that passes the CRC but fails structural validation means a
// writer bug or deliberate tampering, not a torn write — the caller treats
// it as corruption, never as a clean tail.
func decodePayload(p []byte, rec *Record, names map[string]string) error {
	if len(p) < payloadHeaderLen {
		return fmt.Errorf("wal: payload %d bytes, need at least %d", len(p), payloadHeaderLen)
	}
	kind := p[0]
	idLen := int(p[1])
	if len(p) < 2+idLen+4 {
		return fmt.Errorf("wal: payload truncated inside workload id (idLen %d, payload %d)", idLen, len(p))
	}
	id := p[2 : 2+idLen]
	rest := p[2+idLen:]
	count := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) != count*8 {
		return fmt.Errorf("wal: payload declares %d values but carries %d bytes", count, len(rest))
	}
	rec.Kind = kind
	name, ok := names[string(id)] // the conversion in a lookup does not allocate
	if !ok {
		name = string(id)
		names[name] = name
	}
	rec.Workload = name
	if cap(rec.Values) < count {
		rec.Values = make([]float64, count)
	}
	rec.Values = rec.Values[:count]
	for i := 0; i < count; i++ {
		rec.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return nil
}

// scanFrames walks framed records in data, invoking fn with each
// CRC-verified payload. It returns the number of bytes consumed by valid
// records: anything past that offset is a torn or corrupt tail (truncated
// length prefix, short payload, zero or giant length, CRC mismatch). A
// non-nil error is fn's — scanning stops there with valid covering the
// records already accepted, the failing one excluded.
func scanFrames(data []byte, fn func(payload []byte) error) (valid int, err error) {
	off := 0
	for {
		if len(data)-off < frameHeaderLen {
			return off, nil // truncated length prefix (or clean end)
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length < payloadHeaderLen || length > maxRecordBytes {
			return off, nil // zero-length or giant length: corrupt frame
		}
		if len(data)-off-frameHeaderLen < length {
			return off, nil // torn payload
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+length]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			return off, nil // bit rot or a torn rewrite
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off += frameHeaderLen + length
	}
}
