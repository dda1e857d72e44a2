package bo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// RandomSearchContext evaluates iters uniform random points — the
// comparator the paper found to match BO's accuracy but at higher cost
// (Section III-A). The context is checked before each evaluation, and on
// cancellation the partial Result is returned with an error wrapping
// ctx.Err().
func RandomSearchContext(ctx context.Context, space Space, obj Objective, iters int, seed int64) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if iters <= 0 {
		return nil, fmt.Errorf("bo: iters must be positive, got %d", iters)
	}
	rng := rand.New(rand.NewSource(seed))
	res := &Result{BestValue: math.Inf(1)}
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("bo: search interrupted after %d evaluations: %w", len(res.History), err)
		}
		p := space.Sample(rng)
		v, err := obj(p)
		record(res, Evaluation{Point: p, Value: v, Err: err})
	}
	if math.IsInf(res.BestValue, 1) {
		return nil, errors.New("bo: every objective evaluation failed")
	}
	return res, nil
}

// GridSearchContext evaluates a regular grid with perDim levels per
// dimension (log-spaced for log parameters) — the comparator the paper
// found less effective than BO. The total budget is perDim^len(Params)
// evaluations. Cancellation has the same partial-result contract as
// RandomSearchContext.
func GridSearchContext(ctx context.Context, space Space, obj Objective, perDim int) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if perDim <= 0 {
		return nil, fmt.Errorf("bo: perDim must be positive, got %d", perDim)
	}
	levels := make([][]int, len(space.Params))
	for i, p := range space.Params {
		levels[i] = gridLevels(p, perDim)
	}
	res := &Result{BestValue: math.Inf(1)}
	idx := make([]int, len(levels))
	for {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("bo: search interrupted after %d evaluations: %w", len(res.History), err)
		}
		point := make([]int, len(levels))
		for d, l := range levels {
			point[d] = l[idx[d]]
		}
		v, err := obj(point)
		record(res, Evaluation{Point: point, Value: v, Err: err})
		// Odometer increment.
		d := 0
		for ; d < len(idx); d++ {
			idx[d]++
			if idx[d] < len(levels[d]) {
				break
			}
			idx[d] = 0
		}
		if d == len(idx) {
			break
		}
	}
	if math.IsInf(res.BestValue, 1) {
		return nil, errors.New("bo: every objective evaluation failed")
	}
	return res, nil
}

// gridLevels returns perDim distinct values spanning the parameter range,
// deduplicated (small integer ranges may yield fewer levels).
func gridLevels(p Param, perDim int) []int {
	if p.Min == p.Max || perDim == 1 {
		return []int{p.Min}
	}
	seen := map[int]bool{}
	var out []int
	for i := 0; i < perDim; i++ {
		frac := float64(i) / float64(perDim-1)
		var v int
		if p.Log {
			lo, hi := math.Log(float64(p.Min)), math.Log(float64(p.Max))
			v = clampInt(int(math.Round(math.Exp(lo+frac*(hi-lo)))), p.Min, p.Max)
		} else {
			v = clampInt(p.Min+int(math.Round(frac*float64(p.Max-p.Min))), p.Min, p.Max)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
