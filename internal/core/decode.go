package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unsafe"
)

// Snapshot decoding. A fleet restart decodes one snapshot per workload, so
// Load does not hand every document to encoding/json: scanModel decodes the
// document Save writes with a scanner written for that one schema, and any
// input it does not fully recognise goes to encoding/json exactly as
// before. The scanner accepts only documents encoding/json decodes to the
// same modelFile (FuzzLoadDecodeParity checks this), so which decoder ran
// changes neither the accepted inputs nor any error message:
//
//   - known keys may come in any order or be missing, and JSON whitespace
//     is allowed anywhere;
//   - every number must match the strict JSON number grammar before
//     strconv parses it; an int field takes only what strconv.ParseInt
//     accepts and a float field only what strconv.ParseFloat accepts
//     without a range error — encoding/json's own conversions;
//   - strings may not hold escapes, control bytes or non-ASCII bytes;
//   - an unknown, miscased or duplicate key, null, a value of the wrong
//     type, or anything but whitespace after the object declines the
//     document (encoding/json matches keys case-insensitively, merges
//     duplicates and ignores trailing data, none of which Save writes).
//
// Every weight tensor is a sub-slice of one allocation, sized by counting
// the commas after the "weights" key — an upper bound on its numbers.

// decodeModel decodes a model document: the scanner first, encoding/json
// for anything it declines.
func decodeModel(b []byte) (modelFile, error) {
	if mf, ok := scanModel(b); ok {
		return mf, nil
	}
	var mf modelFile
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&mf); err != nil {
		return modelFile{}, fmt.Errorf("core: decoding model: %w", err)
	}
	return mf, nil
}

// The keys of each object in the schema, in the order Save writes them.
var (
	modelKeys  = []string{"version", "hyperparams", "val_error", "scaler", "net"}
	hpKeys     = []string{"HistoryLen", "CellSize", "Layers", "BatchSize"}
	scalerKeys = []string{"name", "a", "b"}
	netKeys    = []string{"config", "weights"}
	configKeys = []string{"InputSize", "HiddenSize", "Layers", "OutputSize"}
)

// scanModel decodes b if it is a document the scanner recognises; ok is
// false otherwise, and the caller falls back to encoding/json.
func scanModel(b []byte) (mf modelFile, ok bool) {
	s := scanner{b: b}
	ok = s.object(modelKeys, func(k int) bool {
		switch k {
		case 0:
			return s.intField(&mf.Version)
		case 1:
			hp := &mf.HP
			return s.ints(hpKeys, &hp.HistoryLen, &hp.CellSize, &hp.Layers, &hp.BatchSize)
		case 2:
			return s.floatField(&mf.ValError)
		case 3:
			return s.object(scalerKeys, func(k int) bool {
				switch k {
				case 0:
					name, ok := s.str()
					mf.Scaler.Name = string(name)
					return ok
				case 1:
					return s.floatField(&mf.Scaler.A)
				default:
					return s.floatField(&mf.Scaler.B)
				}
			})
		default:
			return s.object(netKeys, func(k int) bool {
				if k == 0 {
					c := &mf.Net.Config
					return s.ints(configKeys, &c.InputSize, &c.HiddenSize, &c.Layers, &c.OutputSize)
				}
				return s.weights(&mf.Net.Weights)
			})
		}
	})
	s.space()
	return mf, ok && s.i == len(b)
}

// scanner walks one document; i is the offset of the next unread byte.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans one object whose keys all come from keys, each at most
// once, calling value with the key's index to scan its value.
func (s *scanner) object(keys []string, value func(k int) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint
	for {
		key, ok := s.str()
		if !ok {
			return false
		}
		k := indexOf(keys, key)
		if k < 0 || seen&(1<<k) != 0 || !s.consume(':') || !value(k) {
			return false
		}
		seen |= 1 << k
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

func indexOf(keys []string, key []byte) int {
	for k, want := range keys {
		if string(key) == want {
			return k
		}
	}
	return -1
}

// ints scans an object of int fields, dst[k] receiving key k.
func (s *scanner) ints(keys []string, dst ...*int) bool {
	return s.object(keys, func(k int) bool { return s.intField(dst[k]) })
}

// str scans a string without escapes, control or non-ASCII bytes and
// returns its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number scans one token of the strict JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it as a
// string that aliases b: it must not outlive the parse it is passed to.
func (s *scanner) number() (string, bool) {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return "", false
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return "", false
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return "", false
		}
		i = digits(b, i)
	}
	tok := b[s.i:i]
	s.i = i
	// strconv keeps no reference to a string it parses successfully, and
	// the scanner drops the error of one that fails, so aliasing b saves
	// an allocation per number.
	return unsafe.String(&tok[0], len(tok)), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the offset of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// int scans a number into an int field, as encoding/json would.
func (s *scanner) intField(dst *int) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(tok, 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

// float scans a number into a float64 field, as encoding/json would.
func (s *scanner) floatField(dst *float64) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(tok, 64)
	*dst = v
	return err == nil
}

// weights scans the array of weight tensors into sub-slices of one slab.
func (s *scanner) weights(dst *[][]float64) bool {
	if !s.consume('[') {
		return false
	}
	tensors := [][]float64{} // encoding/json decodes [] to an empty, non-nil slice
	if s.consume(']') {
		*dst = tensors
		return true
	}
	slab := make([]float64, 0, bytes.Count(s.b[s.i:], []byte{','})+1)
	for {
		if !s.consume('[') {
			return false
		}
		start := len(slab)
		if !s.consume(']') {
			for {
				tok, ok := s.number()
				if !ok {
					return false
				}
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return false
				}
				slab = append(slab, v)
				if !s.consume(',') {
					break
				}
			}
			if !s.consume(']') {
				return false
			}
		}
		tensors = append(tensors, slab[start:len(slab):len(slab)])
		if !s.consume(',') {
			break
		}
	}
	*dst = tensors
	return s.consume(']')
}
