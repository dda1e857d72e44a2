package nn

import "fmt"

// Snapshot is a serializable copy of a network's architecture and weights,
// used to persist trained predictors. Weights appear in slab order
// (per layer: Wx, Wh, B; then the head Wy, By), each flattened row-major.
type Snapshot struct {
	Config  Config      `json:"config"`
	Weights [][]float64 `json:"weights"`
}

// Snapshot captures the network's current weights.
func (m *LSTM) Snapshot() Snapshot {
	views := m.w.views()
	weights := make([][]float64, len(views))
	for i, v := range views {
		weights[i] = append([]float64(nil), v.Data...)
	}
	return Snapshot{Config: m.Cfg, Weights: weights}
}

// FromSnapshot reconstructs a network from a snapshot. Every tensor's
// length is checked against the architecture before anything is
// allocated, so a snapshot that declares a huge network without carrying
// its weights is rejected at the cost of the check; the weights are then
// copied once into the network's slab.
func FromSnapshot(s Snapshot) (*LSTM, error) {
	if err := s.Config.Validate(); err != nil {
		return nil, fmt.Errorf("nn: snapshot: %w", err)
	}
	shapes := s.Config.shapes()
	if len(s.Weights) != len(shapes) {
		return nil, fmt.Errorf("nn: snapshot has %d weight tensors, architecture needs %d", len(s.Weights), len(shapes))
	}
	for i, sh := range shapes {
		// n == rows·cols without forming the product, which can overflow.
		if n := len(s.Weights[i]); n%sh[1] != 0 || n/sh[1] != sh[0] {
			return nil, fmt.Errorf("nn: snapshot tensor %d has %d weights, want %d×%d", i, n, sh[0], sh[1])
		}
	}
	m := &LSTM{Cfg: s.Config, w: newTensors(shapes)}
	for i, v := range m.w.views() {
		copy(v.Data, s.Weights[i])
	}
	return m, nil
}
