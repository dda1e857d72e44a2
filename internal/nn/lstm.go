package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"loaddynamics/internal/mat"
)

// Config describes the architecture of an LSTM predictor: the four paper
// hyperparameters minus batch size (which belongs to training, see
// TrainConfig). HiddenSize is the size s of the cell memory vector C;
// Layers is the number of stacked LSTM layers.
type Config struct {
	InputSize  int // features per timestep (1 for univariate JAR series)
	HiddenSize int // s, the length of the cell memory vector C
	Layers     int // number of stacked LSTM layers (1–5 in the paper)
	OutputSize int // outputs of the fully-connected head T (1 for next-JAR)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.InputSize <= 0 || c.HiddenSize <= 0 || c.Layers <= 0 || c.OutputSize <= 0 {
		return fmt.Errorf("nn: all Config fields must be positive: %+v", c)
	}
	if c.HiddenSize > math.MaxInt/4 {
		return fmt.Errorf("nn: HiddenSize %d overflows the gate dimension", c.HiddenSize)
	}
	return nil
}

// LSTM is a stacked LSTM network with a fully-connected output head — the
// model A = (M, T) of Fig. 3 in the paper. It holds its weights and the
// inference pools, nothing else: gradients, optimizer moments and the BPTT
// workspaces belong to a training run (trainer) and are released when the
// run returns.
type LSTM struct {
	Cfg Config
	w   tensors

	// Inference scratch. Predict and PredictBatchInto check streaming
	// workspaces out of these pools so concurrent steady-state forecasts
	// are allocation-free. inferPool1 serves the dominant single-history
	// path; inferPools keys rarer batch sizes to their own pools.
	inferPool1 sync.Pool // *inferWorkspace, bsz == 1
	inferPools sync.Map  // batch size → *sync.Pool of *inferWorkspace
}

// NewLSTM builds a network with Xavier-uniform weight initialization and
// the forget-gate bias set to 1 (the standard LSTM trainability trick).
func NewLSTM(cfg Config, rng *rand.Rand) (*LSTM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &LSTM{Cfg: cfg, w: newTensors(cfg.shapes())}
	h := cfg.HiddenSize
	for l := range m.w.layers {
		ly := &m.w.layers[l]
		xavierInit(&ly.Wx, ly.Wx.Cols, h, rng)
		xavierInit(&ly.Wh, h, h, rng)
		for j := h; j < 2*h; j++ { // forget gate bias = 1
			ly.B.Data[j] = 1
		}
	}
	xavierInit(&m.w.Wy, h, cfg.OutputSize, rng)
	return m, nil
}

func xavierInit(w *mat.Matrix, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range w.Data {
		r := float64(rng.Float64()) // rand's inlined scaling must not fuse into 2·r
		w.Data[i] = (float64(2*r) - 1) * limit
	}
}

// NumParams returns the total number of scalar weights.
func (m *LSTM) NumParams() int { return len(m.w.flat) }

// layerState caches one layer's forward activations for BPTT. gates[t] holds
// the activated gates packed [i | f | o | g] per row, in the same layout as
// the layer's weight rows.
type layerState struct {
	x, gates, c, tanhC, h []*mat.Matrix // one (B × ·) matrix per timestep
}

// cellStep advances the layer one timestep for every row of the batch. The
// gate pre-activations x·Wxᵀ + hPrev·Whᵀ + b are written to gates; one
// mat.LSTMCellRow pass per row then activates them in place (σ for i, f, o
// and tanh for g) and writes c = f⊙cPrev + i⊙g, h = o⊙tanh(c), and tanh(c)
// into tanhC unless it is nil. Training passes its per-timestep BPTT caches
// as the destinations; inference passes scratch and its running state, so c
// may alias cPrev and h may alias hPrev: each c element reads only its own
// previous value, and hPrev is fully consumed by the gate product before h
// is written.
func (ly *layerTensors) cellStep(x, hPrev, cPrev, gates, c, tanhC, h *mat.Matrix) {
	mat.MatMulBT2BiasInto(x, &ly.Wx, hPrev, &ly.Wh, ly.B.Data, gates)
	for r := 0; r < gates.Rows; r++ {
		var tr []float64
		if tanhC != nil {
			tr = tanhC.Row(r)
		}
		mat.LSTMCellRow(gates.Row(r), cPrev.Row(r), c.Row(r), h.Row(r), tr)
	}
}

// forward runs the network over a batch of sequences. xs[t] is the (B × D)
// input at timestep t. It returns the (B × OutputSize) predictions and the
// per-layer caches needed for backward. The returned matrices belong to a
// workspace private to this call, so concurrent forward passes are safe.
func (m *LSTM) forward(xs []*mat.Matrix) (*mat.Matrix, []*layerState) {
	return m.forwardWS(xs, newWorkspace(m.Cfg, xs[0].Rows, len(xs)))
}

// forwardWS is forward writing every activation into ws's pre-sized buffers.
func (m *LSTM) forwardWS(xs []*mat.Matrix, ws *workspace) (*mat.Matrix, []*layerState) {
	cur := xs
	for l := range m.w.layers {
		ly, st := &m.w.layers[l], ws.states[l]
		st.x = cur
		hPrev, cPrev := ws.zeros, ws.zeros
		for t := range cur {
			ly.cellStep(cur[t], hPrev, cPrev, st.gates[t], st.c[t], st.tanhC[t], st.h[t])
			hPrev, cPrev = st.h[t], st.c[t]
		}
		cur = st.h
	}
	last := cur[len(cur)-1]
	mat.MatMulBTInto(last, &m.w.Wy, ws.pred)
	addRowBias(ws.pred, m.w.By.Data)
	return ws.pred, ws.states
}

// backward accumulates gradients for a batch given dPred = ∂L/∂pred and
// the caches from forward. Gradients are *added* into grad, which has the
// layout of the network's weights.
func (m *LSTM) backward(dPred *mat.Matrix, states []*layerState, grad *tensors) {
	m.backwardWS(dPred, states, newWorkspace(m.Cfg, dPred.Rows, len(states[0].h)), grad)
}

// backwardWS is backward with every intermediate written into ws's buffers.
// Weight gradients are computed into zeroed staging matrices and then
// AddInPlace'd into grad, matching the allocating version's rounding
// exactly.
func (m *LSTM) backwardWS(dPred *mat.Matrix, states []*layerState, ws *workspace, grad *tensors) {
	bsz := dPred.Rows
	h := m.Cfg.HiddenSize
	T := len(states[0].h)

	top := states[len(states)-1]
	hLast := top.h[T-1]
	mat.MatMulATInto(dPred, hLast, ws.gWy)
	grad.Wy.AddInPlace(ws.gWy)
	addColSums(&grad.By, dPred)

	// dhSeq[t] holds external gradient flowing into layer l's h_t (from the
	// head for the top layer, from layer l+1's dx for lower layers).
	dhSeq, dxSeq := ws.dhSeq, ws.dxSeq
	for t := range dhSeq {
		dhSeq[t].Zero()
	}
	mat.MatMulInto(dPred, &m.w.Wy, dhSeq[T-1])

	for l := len(m.w.layers) - 1; l >= 0; l-- {
		ly, g := &m.w.layers[l], &grad.layers[l]
		st := states[l]
		ws.dhCarry.Zero()
		ws.dcCarry.Zero()
		for t := T - 1; t >= 0; t-- {
			cPrev := ws.zeros
			if t > 0 {
				cPrev = st.c[t-1]
			}
			// Back through h = o⊙tanh(c), c = f⊙cPrev + i⊙g and the gate
			// nonlinearities into the pre-activations dz, one pass per row:
			//   dh = dhExt + dhCarry
			//   dc = dcCarry + dh⊙o⊙(1 − tanh²(c)),  dcCarry ← dc⊙f
			//   dz = [dc⊙g⊙σ'(i) | dc⊙cPrev⊙σ'(f) | dh⊙tanh(c)⊙σ'(o) | dc⊙i⊙tanh'(g)]
			dz := ws.dz
			for r := 0; r < bsz; r++ {
				gr, zr := st.gates[t].Row(r), dz.Row(r)
				ig, fg, og, gg := gr[:h], gr[h:2*h], gr[2*h:3*h], gr[3*h:4*h]
				dzi, dzf, dzo, dzg := zr[:h], zr[h:2*h], zr[2*h:3*h], zr[3*h:4*h]
				dhExt, dhc, dcc := dhSeq[t].Row(r)[:h], ws.dhCarry.Row(r)[:h], ws.dcCarry.Row(r)[:h]
				tcr, cp := st.tanhC[t].Row(r)[:h], cPrev.Row(r)[:h]
				for k := range dzi {
					iv, fv, ov, gv, tc := ig[k], fg[k], og[k], gg[k], tcr[k]
					dh := dhExt[k] + dhc[k]
					dc := dcc[k] + float64(dh*ov*(1-float64(tc*tc)))
					dcc[k] = dc * fv
					di, df, dO, dg := dc*gv, dc*cp[k], dh*tc, dc*iv
					dzi[k] = di * iv * (1 - iv)
					dzf[k] = df * fv * (1 - fv)
					dzo[k] = dO * ov * (1 - ov)
					dzg[k] = dg * (1 - float64(gv*gv))
				}
			}

			mat.MatMulATInto(dz, st.x[t], ws.gWx[l])
			g.Wx.AddInPlace(ws.gWx[l])
			if t > 0 {
				mat.MatMulATInto(dz, st.h[t-1], ws.gWh[l])
				g.Wh.AddInPlace(ws.gWh[l])
				mat.MatMulInto(dz, &ly.Wh, ws.dhCarry)
			}
			addColSums(&g.B, dz)
			if l > 0 {
				// The bottom layer's dx is never read, so skip computing it.
				mat.MatMulInto(dz, &ly.Wx, dxSeq[t])
			}
		}
		dhSeq, dxSeq = dxSeq, dhSeq // dx becomes the external dh of the layer below
	}
}

// PredictBatch runs inference on a batch of univariate histories (each of
// the same length) and returns one prediction per history.
func (m *LSTM) PredictBatch(histories [][]float64) ([]float64, error) {
	out := make([]float64, len(histories))
	if err := m.PredictBatchInto(histories, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto runs inference on a batch of univariate histories (each
// of the same length), writing one prediction per history into out. It is
// allocation-free in steady state: the streaming workspace comes from a
// per-batch-size pool and every intermediate is reused across timesteps.
func (m *LSTM) PredictBatchInto(histories [][]float64, out []float64) error {
	T, err := m.validateBatch(histories)
	if err != nil {
		return err
	}
	if len(out) != len(histories) {
		return fmt.Errorf("nn: PredictBatchInto out has length %d, want %d", len(out), len(histories))
	}
	ws := m.inferWS(len(histories))
	defer m.putInferWS(ws)
	ws.reset()
	for t := 0; t < T; t++ {
		for b := range histories {
			ws.x.Data[b] = histories[b][t]
		}
		m.inferStep(ws)
	}
	m.inferHead(ws)
	for b := range out {
		out[b] = ws.pred.At(b, 0)
	}
	return nil
}

// Predict runs inference on a single univariate history. It is the
// allocation-free fast path for the common one-workload forecast: no
// slice-of-slices wrapper, and the streaming workspace comes from a
// dedicated single-history pool.
func (m *LSTM) Predict(history []float64) (float64, error) {
	if m.Cfg.InputSize != 1 {
		return 0, fmt.Errorf("nn: Predict supports univariate input, config has InputSize=%d", m.Cfg.InputSize)
	}
	if len(history) == 0 {
		return 0, fmt.Errorf("nn: empty history")
	}
	ws := m.inferWS(1)
	defer m.putInferWS(ws)
	ws.reset()
	for _, v := range history {
		ws.x.Data[0] = v
		m.inferStep(ws)
	}
	m.inferHead(ws)
	return ws.pred.At(0, 0), nil
}

// packInputs converts B equal-length univariate histories into time-major
// (B × 1) input matrices.
func (m *LSTM) packInputs(histories [][]float64) ([]*mat.Matrix, error) {
	T, err := m.validateBatch(histories)
	if err != nil {
		return nil, err
	}
	xs := make([]*mat.Matrix, T)
	for t := 0; t < T; t++ {
		xs[t] = mat.New(len(histories), 1)
	}
	packInputsInto(histories, xs)
	return xs, nil
}

// validateBatch checks a batch of histories is packable and returns the
// shared sequence length.
func (m *LSTM) validateBatch(histories [][]float64) (int, error) {
	if m.Cfg.InputSize != 1 {
		return 0, fmt.Errorf("nn: packInputs supports univariate input, config has InputSize=%d", m.Cfg.InputSize)
	}
	if len(histories) == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	T := len(histories[0])
	if T == 0 {
		return 0, fmt.Errorf("nn: empty history")
	}
	for b, hist := range histories {
		if len(hist) != T {
			return 0, fmt.Errorf("nn: ragged batch: history %d has length %d, want %d", b, len(hist), T)
		}
	}
	return T, nil
}

// packInputsInto fills pre-sized time-major (B × 1) matrices from the batch.
func packInputsInto(histories [][]float64, xs []*mat.Matrix) {
	for t, xt := range xs {
		for b := range histories {
			xt.Data[b] = histories[b][t]
		}
	}
}

func addRowBias(m *mat.Matrix, bias []float64) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// addColSums adds the column sums of src (B × C) into dst (1 × C).
func addColSums(dst *mat.Matrix, src *mat.Matrix) {
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}
