package nn

import (
	"sync"

	"loaddynamics/internal/mat"
)

// This file holds the inference hot path. Training (forwardWS) walks
// layer-outer/timestep-inner and caches every activation for BPTT, so its
// workspace is O(layers·batch·hidden·T). Inference needs none of those
// caches: inferStep walks timestep-outer/layer-inner keeping only the
// running h/c state per layer, so an inferWorkspace is O(layers·batch·hidden)
// regardless of sequence length, and pooling makes Predict/PredictBatchInto
// allocation-free in steady state. Results are bit-identical to
// packInputs+forward: every element's value depends only on the same layer's
// previous-timestep state and the layer below's same-timestep output, and
// both traversal orders run the same cell step (layerTensors.cellStep), so
// they execute the identical floating-point op sequence per element.

// inferWorkspace is the scratch state for one streaming forward pass at a
// fixed batch size. The gate scratch is shared across layers because each
// layer fully consumes it within its own step; only h and c persist across
// timesteps and are therefore per-layer.
type inferWorkspace struct {
	bsz int

	x     *mat.Matrix   // (bsz × InputSize) current-timestep input
	gates *mat.Matrix   // (bsz × 4H) gate scratch
	h, c  []*mat.Matrix // per-layer running state, (bsz × H)
	pred  *mat.Matrix   // (bsz × OutputSize)
}

// newInferWorkspace allocates the streaming-inference scratch for a batch of
// bsz sequences.
func newInferWorkspace(cfg Config, layers, bsz int) *inferWorkspace {
	hh := cfg.HiddenSize
	ws := &inferWorkspace{
		bsz:   bsz,
		x:     mat.New(bsz, cfg.InputSize),
		gates: mat.New(bsz, 4*hh),
		pred:  mat.New(bsz, cfg.OutputSize),
		h:     make([]*mat.Matrix, layers),
		c:     make([]*mat.Matrix, layers),
	}
	for l := 0; l < layers; l++ {
		ws.h[l] = mat.New(bsz, hh)
		ws.c[l] = mat.New(bsz, hh)
	}
	return ws
}

// reset zeroes the running h/c state so the next sequence starts from the
// canonical all-zero h₋₁/c₋₁.
func (ws *inferWorkspace) reset() {
	for l := range ws.h {
		ws.h[l].Zero()
		ws.c[l].Zero()
	}
}

// inferWS checks a pooled workspace out for the batch size. Single-history
// forecasts (the autoscaler hot path) get a dedicated pool; batch sizes are
// rarer and size-keyed through a sync.Map of pools. Callers must return the
// workspace with putInferWS so steady-state inference never allocates.
func (m *LSTM) inferWS(bsz int) *inferWorkspace {
	if bsz == 1 {
		if v := m.inferPool1.Get(); v != nil {
			return v.(*inferWorkspace)
		}
		return newInferWorkspace(m.Cfg, len(m.w.layers), 1)
	}
	p, ok := m.inferPools.Load(bsz)
	if !ok {
		p, _ = m.inferPools.LoadOrStore(bsz, &sync.Pool{})
	}
	if v := p.(*sync.Pool).Get(); v != nil {
		return v.(*inferWorkspace)
	}
	return newInferWorkspace(m.Cfg, len(m.w.layers), bsz)
}

// putInferWS returns a workspace to its pool.
func (m *LSTM) putInferWS(ws *inferWorkspace) {
	if ws.bsz == 1 {
		m.inferPool1.Put(ws)
		return
	}
	if p, ok := m.inferPools.Load(ws.bsz); ok {
		p.(*sync.Pool).Put(ws)
	}
}

// inferStep advances every layer one timestep. ws.x must already hold the
// timestep's input; ws.h/ws.c carry the running state, which the shared cell
// step (layerTensors.cellStep) updates in place.
func (m *LSTM) inferStep(ws *inferWorkspace) {
	in := ws.x
	for l := range m.w.layers {
		m.w.layers[l].cellStep(in, ws.h[l], ws.c[l], ws.gates, ws.c[l], nil, ws.h[l])
		in = ws.h[l]
	}
}

// inferHead applies the fully-connected head to the top layer's final hidden
// state, leaving the result in ws.pred.
func (m *LSTM) inferHead(ws *inferWorkspace) {
	mat.MatMulBTInto(ws.h[len(m.w.layers)-1], &m.w.Wy, ws.pred)
	addRowBias(ws.pred, m.w.By.Data)
}
