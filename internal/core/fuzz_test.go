package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"loaddynamics/internal/nn"
)

// fuzzModelJSON serializes a tiny trained model once per process — a seed
// that exercises the deep (post-decode) validation paths of Load, not just
// the JSON parser.
var fuzzModelJSON = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewSource(7))
	series := make([]float64, 80)
	for i := range series {
		series[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/12) + rng.NormFloat64()
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Patience = 0
	m, err := TrainSingle(Config{Seed: 7, Train: tc},
		series[:60], series[60:], Hyperparams{HistoryLen: 4, CellSize: 2, Layers: 1, BatchSize: 8})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// FuzzLoadSnapshot drives core.Load with arbitrary bytes: whatever the
// input, Load must return an error rather than panic, and any input it does
// accept must round-trip through Save/Load unchanged — the invariant that
// makes on-disk snapshots safe to feed to a serving process.
func FuzzLoadSnapshot(f *testing.F) {
	valid := fuzzModelJSON()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99,"hyperparams":{}}`))
	f.Add([]byte(`{"version":1,"hyperparams":{"HistoryLen":4,"CellSize":2,"Layers":1,"BatchSize":8},"val_error":0.1,"scaler":{"name":"minmax","a":0,"b":1},"net":{"config":{"InputSize":1,"HiddenSize":2,"OutputSize":1,"Layers":1},"weights":[]}}`))
	f.Add([]byte(`{"version":1,"val_error":1e999}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("Load returned both a model and an error: %v", err)
			}
			return
		}
		// Accepted input: the model must satisfy the same invariants Load
		// enforces, and survive a Save/Load round trip.
		if err := m.HP.Validate(); err != nil {
			t.Fatalf("loaded model has invalid hyperparameters: %v", err)
		}
		if math.IsNaN(m.ValError) || math.IsInf(m.ValError, 0) || m.ValError < 0 {
			t.Fatalf("loaded model has invalid ValError %v", m.ValError)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("re-saving a loaded model: %v", err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v", err)
		}
		if m2.NumParams() != m.NumParams() || m2.HP != m.HP {
			t.Fatalf("round trip changed the model: %d/%v params vs %d/%v",
				m.NumParams(), m.HP, m2.NumParams(), m2.HP)
		}
	})
}

// snapshotSeed reads one committed FuzzLoadSnapshot corpus file and returns
// its input bytes.
func snapshotSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadSnapshot", name))
	if err != nil {
		t.Fatal(err)
	}
	header, body, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, found := strings.CutPrefix(body, "[]byte(")
	if !ok || header != "go test fuzz v1" || !found || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a single-[]byte corpus file", name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

// TestFuzzLoadSnapshotSeedsReachTheirCheck loads every committed corpus file
// and asserts Load rejects it at the check the file is named after, so a
// seed cannot silently stop at an earlier check and leave its target
// unexercised.
func TestFuzzLoadSnapshotSeedsReachTheirCheck(t *testing.T) {
	want := map[string]string{
		"bad-scaler":               `unknown scaler "mystery"`,
		"hp-architecture-disagree": "disagree with network architecture",
		"minmax-inverted":          "minmax scaler has max 1 < min 5",
		"negative-val-error":       "invalid validation error -3",
		"oversized-hidden":         "snapshot has 0 weight tensors",
		"version-mismatch":         "unsupported model file version 42",
		"zscore-bad-std":           "zscore scaler has non-positive std -1",
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzLoadSnapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("%d corpus files, want %d (one expected check each)", len(entries), len(want))
	}
	for _, e := range entries {
		sub, ok := want[e.Name()]
		if !ok {
			t.Fatalf("corpus file %s has no expected check", e.Name())
		}
		_, err := Load(bytes.NewReader(snapshotSeed(t, e.Name())))
		if err == nil || !strings.Contains(err.Error(), sub) {
			t.Errorf("%s: Load error %v, want one containing %q", e.Name(), err, sub)
		}
	}
}
