package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval is a closed-open span of wall time.
type interval struct{ start, end time.Time }

// unionDuration is the total time covered by at least one of ivs, clipped
// to within. Parallel children overlap, so their union — not their sum — is
// what a parent span's self time excludes.
func unionDuration(ivs []interval, within interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(within.start) {
			iv.start = within.start
		}
		if iv.end.After(within.end) {
			iv.end = within.end
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// mapeOf is the mean absolute percentage error over pairs with a non-zero
// actual (the evaluator's convention), and the number of pairs scored.
func mapeOf(pred, actual []float64) (float64, int) {
	s, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-actual[i]) / actual[i]
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return 100 * s / float64(n), n
}

// closeRel reports whether a and b agree to a relative tolerance.
func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol*math.Max(math.Abs(a), math.Abs(b)) || d == 0
}
