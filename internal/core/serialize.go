package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"loaddynamics/internal/nn"
	"loaddynamics/internal/timeseries"
)

// modelFileVersion guards the on-disk format.
const modelFileVersion = 1

// modelFile is the JSON schema for a persisted predictor.
type modelFile struct {
	Version  int         `json:"version"`
	HP       Hyperparams `json:"hyperparams"`
	ValError float64     `json:"val_error"`
	Scaler   scalerFile  `json:"scaler"`
	Net      nn.Snapshot `json:"net"`
}

// scalerFile captures either scaler's two parameters.
type scalerFile struct {
	Name string  `json:"name"`
	A    float64 `json:"a"` // minmax: Min;  zscore: Mean
	B    float64 `json:"b"` // minmax: Max;  zscore: Std
}

// Save writes the trained model to w as JSON, so a predictor optimized
// once can be deployed without re-running the search.
func (m *Model) Save(w io.Writer) error {
	if m.net == nil {
		return fmt.Errorf("core: cannot save an untrained model")
	}
	var sf scalerFile
	switch s := m.scaler.(type) {
	case *timeseries.MinMaxScaler:
		sf = scalerFile{Name: s.Name(), A: s.Min, B: s.Max}
	case *timeseries.ZScoreScaler:
		sf = scalerFile{Name: s.Name(), A: s.Mean, B: s.Std}
	default:
		return fmt.Errorf("core: cannot serialize scaler %T", m.scaler)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(modelFile{
		Version:  modelFileVersion,
		HP:       m.HP,
		ValError: m.ValError,
		Scaler:   sf,
		Net:      m.net.Snapshot(),
	})
}

// SaveFile writes the model to a file at path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: create %s: %w", path, err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a model previously written by Save. The snapshot is validated
// before a Model is returned — non-finite weights, inconsistent or
// out-of-range hyperparameters, weight-shape mismatches and corrupt scaler
// parameters are rejected with a descriptive error rather than loading a
// predictor that fails (or worse, emits poison forecasts) at predict time.
func Load(r io.Reader) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	return loadBytes(b)
}

// loadBytes decodes and validates one model document.
func loadBytes(b []byte) (*Model, error) {
	mf, err := decodeModel(b)
	if err != nil {
		return nil, err
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("core: unsupported model file version %d (want %d)", mf.Version, modelFileVersion)
	}
	if err := mf.HP.Validate(); err != nil {
		return nil, err
	}
	if mf.HP.CellSize != mf.Net.Config.HiddenSize || mf.HP.Layers != mf.Net.Config.Layers {
		return nil, fmt.Errorf("core: model file hyperparameters (%s) disagree with network architecture (hidden=%d layers=%d)",
			mf.HP, mf.Net.Config.HiddenSize, mf.Net.Config.Layers)
	}
	if math.IsNaN(mf.ValError) || math.IsInf(mf.ValError, 0) || mf.ValError < 0 {
		return nil, fmt.Errorf("core: model file has invalid validation error %v", mf.ValError)
	}
	for ti, tensor := range mf.Net.Weights {
		for wi, w := range tensor {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: model file weight tensor %d element %d is non-finite (%v) — refusing to load a corrupt model", ti, wi, w)
			}
		}
	}
	net, err := nn.FromSnapshot(mf.Net)
	if err != nil {
		return nil, err
	}
	if !isFinite(mf.Scaler.A) || !isFinite(mf.Scaler.B) {
		return nil, fmt.Errorf("core: model file scaler parameters are non-finite (a=%v b=%v)", mf.Scaler.A, mf.Scaler.B)
	}
	var scaler timeseries.Scaler
	switch mf.Scaler.Name {
	case "minmax":
		if mf.Scaler.B < mf.Scaler.A {
			return nil, fmt.Errorf("core: model file minmax scaler has max %v < min %v", mf.Scaler.B, mf.Scaler.A)
		}
		s := &timeseries.MinMaxScaler{Min: mf.Scaler.A, Max: mf.Scaler.B}
		s.Fit([]float64{mf.Scaler.A, mf.Scaler.B}) // mark fitted with the stored bounds
		scaler = s
	case "zscore":
		if mf.Scaler.B <= 0 {
			return nil, fmt.Errorf("core: model file zscore scaler has non-positive std %v", mf.Scaler.B)
		}
		s := &timeseries.ZScoreScaler{}
		s.Fit([]float64{0}) // mark fitted; overwrite with stored parameters
		s.Mean, s.Std = mf.Scaler.A, mf.Scaler.B
		scaler = s
	default:
		return nil, fmt.Errorf("core: unknown scaler %q in model file", mf.Scaler.Name)
	}
	return &Model{HP: mf.HP, ValError: mf.ValError, net: net, scaler: scaler}, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// LoadFile reads a model from a file written by SaveFile, in one read
// sized to the file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", path, err)
	}
	defer f.Close()
	b, err := readSized(f)
	if err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	return loadBytes(b)
}

// readSized reads a regular file with one read into a buffer of the size
// Stat reports; a file that shrank since is returned as far as it goes.
// Anything else (a pipe, a file Stat cannot size) is read to EOF.
func readSized(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() == 0 {
		return io.ReadAll(f)
	}
	b := make([]byte, fi.Size())
	n, err := io.ReadFull(f, b)
	if err == io.ErrUnexpectedEOF {
		err = nil
	}
	return b[:n], err
}
