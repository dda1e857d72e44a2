package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"loaddynamics/internal/nn"
	"loaddynamics/internal/timeseries"
)

// randomModel returns an untrained model of the given architecture with
// Xavier-initialised weights — Save output of the shape a fleet serves.
func randomModel(tb testing.TB, hp Hyperparams, seed int64) *Model {
	tb.Helper()
	net, err := nn.NewLSTM(nn.Config{InputSize: 1, HiddenSize: hp.CellSize, Layers: hp.Layers, OutputSize: 1},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	sc := &timeseries.MinMaxScaler{}
	sc.Fit([]float64{120, 98_000})
	return &Model{HP: hp, ValError: 0.25, net: net, scaler: sc}
}

func saveBytes(tb testing.TB, m *Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// parityBaseHPs are the architectures of perfbench's eight base models.
var parityBaseHPs = []Hyperparams{
	{24, 16, 2, 32}, {12, 8, 1, 16}, {6, 12, 2, 64}, {18, 4, 1, 8},
	{3, 16, 1, 24}, {24, 10, 1, 48}, {9, 14, 2, 12}, {16, 6, 2, 40},
}

// extremeModelJSON is the Save output of a 3-layer net whose weights
// include the float64 values whose text form is easiest to get wrong:
// negative zero, the smallest subnormal and numbers near ±MaxFloat64.
func extremeModelJSON(tb testing.TB) []byte {
	m := randomModel(tb, Hyperparams{HistoryLen: 5, CellSize: 3, Layers: 3, BatchSize: 8}, 3)
	snap := m.net.Snapshot()
	w := snap.Weights[0]
	w[0], w[1], w[2], w[3] = math.Copysign(0, -1), 5e-324, 1.7e308, -1.7e308
	net, err := nn.FromSnapshot(snap)
	if err != nil {
		tb.Fatal(err)
	}
	m.net = net
	return saveBytes(tb, m)
}

// declinedVariants are non-canonical forms of a Save document, one per
// reason the scanner hands a document to encoding/json. Each still decodes
// (or fails) exactly as encoding/json decides.
func declinedVariants(doc string) []variant {
	return []variant{
		{"unknown key", strings.Replace(doc, `{`, `{"extra":1,`, 1)},
		{"miscased key", strings.Replace(doc, `"version"`, `"Version"`, 1)},
		{"duplicate key", strings.Replace(doc, `{`, `{"version":1,`, 1)},
		{"null", strings.Replace(doc, `"val_error":0.25`, `"val_error":null`, 1)},
		{"string escape", strings.Replace(doc, `"minmax"`, `"min\u006dax"`, 1)},
		{"non-integer int", strings.Replace(doc, `"HistoryLen":4`, `"HistoryLen":4.0`, 1)},
		{"out-of-range float", strings.Replace(doc, `"val_error":0.25`, `"val_error":1e999`, 1)},
		{"trailing data", doc + `{}`},
	}
}

// variant is one named rewrite of a Save document.
type variant struct{ name, doc string }

// acceptedVariants are forms of a Save document the scanner must decode
// itself: JSON whitespace anywhere, keys in another order, keys missing.
func acceptedVariants(tb testing.TB, doc []byte) []variant {
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, " \r", "\t"); err != nil {
		tb.Fatal(err)
	}
	var mf modelFile
	if err := json.Unmarshal(doc, &mf); err != nil {
		tb.Fatal(err)
	}
	net, err := json.Marshal(mf.Net)
	if err != nil {
		tb.Fatal(err)
	}
	reordered := fmt.Sprintf(`{"net":%s,"scaler":{"b":%v,"name":%q},"hyperparams":{"BatchSize":8,"Layers":1,"CellSize":2,"HistoryLen":4},"version":1}`,
		net, mf.Scaler.B, mf.Scaler.Name)
	return []variant{
		{"indented", indented.String()},
		{"reordered", reordered},
		{"sparse", `{"version":42}`},
		{"empty", ` { } `},
	}
}

// FuzzLoadDecodeParity pins the decoder contract: whatever the input, a
// document the scanner accepts decodes to the modelFile encoding/json
// decodes from it, weight for weight by bit pattern. The seeds are Save
// output for every architecture perfbench serves, extreme weights, and a
// non-canonical variant per fallback reason, which the scanner must
// decline.
func FuzzLoadDecodeParity(f *testing.F) {
	for i, hp := range parityBaseHPs {
		f.Add(saveBytes(f, randomModel(f, hp, int64(i))))
	}
	f.Add(extremeModelJSON(f))
	small := saveBytes(f, randomModel(f, Hyperparams{HistoryLen: 4, CellSize: 2, Layers: 1, BatchSize: 8}, 1))
	for _, v := range acceptedVariants(f, small) {
		if _, ok := scanModel([]byte(v.doc)); !ok {
			f.Fatalf("%s: scanner declined a document it must decode", v.name)
		}
		f.Add([]byte(v.doc))
	}
	for _, v := range declinedVariants(string(small)) {
		if v.doc == string(small) {
			f.Fatalf("%s: variant equals the Save output", v.name)
		}
		if _, ok := scanModel([]byte(v.doc)); ok {
			f.Fatalf("%s: scanner accepted a document it must hand to encoding/json", v.name)
		}
		f.Add([]byte(v.doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := scanModel(data)
		if !ok {
			return
		}
		var want modelFile
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Fatalf("scanner accepted a document encoding/json rejects: %v", err)
		}
		if diff := modelFileDiff(got, want); diff != "" {
			t.Fatalf("scanner and encoding/json disagree: %s", diff)
		}
	})
}

// modelFileDiff describes the first difference between two decoded
// documents, comparing floats by bit pattern; "" means identical.
func modelFileDiff(a, b modelFile) string {
	bits := math.Float64bits
	switch {
	case a.Version != b.Version || a.HP != b.HP || a.Net.Config != b.Net.Config:
		return fmt.Sprintf("ints %d %+v %+v vs %d %+v %+v", a.Version, a.HP, a.Net.Config, b.Version, b.HP, b.Net.Config)
	case bits(a.ValError) != bits(b.ValError):
		return fmt.Sprintf("val_error %v vs %v", a.ValError, b.ValError)
	case a.Scaler.Name != b.Scaler.Name || bits(a.Scaler.A) != bits(b.Scaler.A) || bits(a.Scaler.B) != bits(b.Scaler.B):
		return fmt.Sprintf("scaler %+v vs %+v", a.Scaler, b.Scaler)
	case (a.Net.Weights == nil) != (b.Net.Weights == nil) || len(a.Net.Weights) != len(b.Net.Weights):
		return fmt.Sprintf("weights %d tensors (nil %t) vs %d (nil %t)",
			len(a.Net.Weights), a.Net.Weights == nil, len(b.Net.Weights), b.Net.Weights == nil)
	}
	for ti := range a.Net.Weights {
		ta, tb := a.Net.Weights[ti], b.Net.Weights[ti]
		if len(ta) != len(tb) {
			return fmt.Sprintf("tensor %d has %d vs %d weights", ti, len(ta), len(tb))
		}
		for wi := range ta {
			if bits(ta[wi]) != bits(tb[wi]) {
				return fmt.Sprintf("tensor %d weight %d: %v (%#x) vs %v (%#x)", ti, wi, ta[wi], bits(ta[wi]), tb[wi], bits(tb[wi]))
			}
		}
	}
	return ""
}

// TestScanModelSharesOneSlab checks that the scanner decodes every weight
// tensor into one backing allocation, in Save order.
func TestScanModelSharesOneSlab(t *testing.T) {
	mf, ok := scanModel(saveBytes(t, randomModel(t, parityBaseHPs[0], 1)))
	if !ok {
		t.Fatal("scanner declined Save output")
	}
	first := unsafe.Pointer(&mf.Net.Weights[0][0])
	off := uintptr(0)
	for i, tensor := range mf.Net.Weights {
		for j := range tensor {
			if unsafe.Pointer(&tensor[j]) != unsafe.Add(first, off) {
				t.Fatalf("tensor %d element %d is not at slab offset %d", i, j, off/8)
			}
			off += 8
		}
	}
}

// loadResult keeps the benchmarked Load from being optimised away.
var loadResult *Model

// BenchmarkLoadSnapshot loads a snapshot file — the fleet's lazy-load path
// — holding Save output of the largest (H16/L2) and a small (H4/L1) fleet
// architecture.
func BenchmarkLoadSnapshot(b *testing.B) {
	for _, c := range []struct {
		name string
		hp   Hyperparams
	}{
		{"H16L2", Hyperparams{HistoryLen: 24, CellSize: 16, Layers: 2, BatchSize: 32}},
		{"H4L1", Hyperparams{HistoryLen: 18, CellSize: 4, Layers: 1, BatchSize: 8}},
	} {
		doc := saveBytes(b, randomModel(b, c.hp, 1))
		path := filepath.Join(b.TempDir(), c.name+".model.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := LoadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				loadResult = m
			}
		})
	}
}
