package nn

import "loaddynamics/internal/mat"

// workspace holds every scratch matrix forward/backward need for one batch
// shape, so training reuses pre-sized buffers across batches instead of
// allocating fresh matrices every step. A workspace is sized for a fixed
// (batch, sequence-length) pair and owned by a single goroutine; a training
// run keeps one per batch size it encounters. The inference path does not
// use this type at all — it runs on the pooled streaming inferWorkspace
// (infer.go), which needs no per-timestep caches and is safe for concurrent
// use.
type workspace struct {
	bsz, T int

	xs     []*mat.Matrix // packed inputs, T × (bsz × InputSize)
	states []*layerState // per-layer forward caches for BPTT

	zeros *mat.Matrix // (bsz × H) all-zero h₋₁/c₋₁ stand-in; never written

	pred  *mat.Matrix // (bsz × OutputSize)
	dPred *mat.Matrix // (bsz × OutputSize)

	dhSeq, dxSeq []*mat.Matrix // T × (bsz × H) inter-layer gradient buffers
	dhCarry      *mat.Matrix   // (bsz × H) dL/dh flowing back from t+1
	dcCarry      *mat.Matrix   // (bsz × H) dL/dc flowing back from t+1
	dz           *mat.Matrix   // (bsz × 4H) gate pre-activation gradient

	gWy      *mat.Matrix   // (OutputSize × H) head-gradient staging
	gWx, gWh []*mat.Matrix // per-layer weight-gradient staging
}

// newWorkspace allocates every buffer for a (bsz, T) batch of a network
// with the given architecture.
func newWorkspace(cfg Config, bsz, T int) *workspace {
	h := cfg.HiddenSize
	ws := &workspace{
		bsz:     bsz,
		T:       T,
		zeros:   mat.New(bsz, h),
		pred:    mat.New(bsz, cfg.OutputSize),
		dPred:   mat.New(bsz, cfg.OutputSize),
		dhCarry: mat.New(bsz, h),
		dcCarry: mat.New(bsz, h),
		dz:      mat.New(bsz, 4*h),
		gWy:     mat.New(cfg.OutputSize, h),
	}
	ws.xs = make([]*mat.Matrix, T)
	ws.dhSeq = make([]*mat.Matrix, T)
	ws.dxSeq = make([]*mat.Matrix, T)
	for t := 0; t < T; t++ {
		ws.xs[t] = mat.New(bsz, cfg.InputSize)
		ws.dhSeq[t] = mat.New(bsz, h)
		ws.dxSeq[t] = mat.New(bsz, h)
	}
	shapes := cfg.shapes()
	ws.states = make([]*layerState, cfg.Layers)
	ws.gWx = make([]*mat.Matrix, cfg.Layers)
	ws.gWh = make([]*mat.Matrix, cfg.Layers)
	for l := range ws.states {
		st := &layerState{
			gates: make([]*mat.Matrix, T),
			c:     make([]*mat.Matrix, T),
			tanhC: make([]*mat.Matrix, T),
			h:     make([]*mat.Matrix, T),
		}
		for t := 0; t < T; t++ {
			st.gates[t] = mat.New(bsz, 4*h)
			st.c[t] = mat.New(bsz, h)
			st.tanhC[t] = mat.New(bsz, h)
			st.h[t] = mat.New(bsz, h)
		}
		ws.states[l] = st
		wx := shapes[3*l]
		ws.gWx[l] = mat.New(wx[0], wx[1])
		ws.gWh[l] = mat.New(4*h, h)
	}
	return ws
}

// workspace returns the run's workspace for the batch shape, building one
// on first use. A run sees at most two batch sizes per dataset (the
// configured size and the final remainder), so the map stays tiny.
func (tr *trainer) workspace(bsz, T int) *workspace {
	ws := tr.wss[bsz]
	if ws == nil || ws.T != T {
		ws = newWorkspace(tr.net.Cfg, bsz, T)
		tr.wss[bsz] = ws
	}
	return ws
}
