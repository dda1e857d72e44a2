package mat

import "math"

// LSTMCellRow runs an LSTM cell's pointwise pass over one batch row. gates
// holds the row's pre-activations packed [i | f | o | g], each len(c) wide;
// the pass activates them in place (σ for i, f and o, tanh for g) and writes
//
//	c = f⊙cPrev + i⊙g,  h = o⊙tanh(c)
//
// and tanh(c) into tanhC unless tanhC is nil. Each c element reads only its
// own cPrev element before it is written, so c may alias cPrev; h may alias
// any slice the pass does not read.
//
// On AVX2+FMA hosts four lanes run at once in assembly that repeats
// math.Exp's FMA sequence and math.Tanh's branches lane by lane, so every
// output has the bits cellRowGo gives on the same host; a group whose lanes
// leave the range that sequence covers runs cellRowGo instead.
func LSTMCellRow(gates, cPrev, c, h, tanhC []float64) {
	hh := len(c)
	gates, cPrev, h = gates[:4*hh], cPrev[:hh], h[:hh]
	if tanhC != nil {
		tanhC = tanhC[:hh]
	}
	if useAVX2 && haveFMA && hh > 0 {
		cellRowAVX2(gates, cPrev, c, h, tanhC)
		return
	}
	cellRowGo(gates, cPrev, c, h, tanhC, 0, hh)
}

// cellRowGo is LSTMCellRow over lanes [lo, hi) in scalar Go: the reference
// the assembly is tested against. The float64 conversions keep compilers
// that fuse a*b + c (arm64, say) from fusing c's products.
func cellRowGo(gates, cPrev, c, h, tanhC []float64, lo, hi int) {
	hh := len(c)
	ig, fg, og, gg := gates[:hh], gates[hh:2*hh], gates[2*hh:3*hh], gates[3*hh:4*hh]
	for k := lo; k < hi; k++ {
		iv, fv, ov, gv := sigmoid(ig[k]), sigmoid(fg[k]), sigmoid(og[k]), math.Tanh(gg[k])
		ig[k], fg[k], og[k], gg[k] = iv, fv, ov, gv
		cv := float64(fv*cPrev[k]) + float64(iv*gv)
		tc := math.Tanh(cv)
		c[k] = cv
		h[k] = ov * tc
		if tanhC != nil {
			tanhC[k] = tc
		}
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// cellRowAVX2 is LSTMCellRow on the assembly kernel. cellRowAsm stops at the
// first group of four lanes it cannot reproduce bit for bit and stores
// nothing of it; that group runs in Go and the kernel resumes after it. The
// slices have been cut to their lengths, so every pointer below is in
// bounds for the lanes the assembly touches.
func cellRowAVX2(gates, cPrev, c, h, tanhC []float64) {
	hh := len(c)
	for k := 0; k < hh; {
		var tp *float64
		if tanhC != nil {
			tp = &tanhC[k]
		}
		k += cellRowAsm(&gates[k], hh, &cPrev[k], &c[k], &h[k], tp, hh-k)
		if k < hh {
			end := min(k+4, hh)
			cellRowGo(gates, cPrev, c, h, tanhC, k, end)
			k = end
		}
	}
}
