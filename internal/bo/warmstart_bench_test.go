package bo

import (
	"context"
	"testing"
)

// BenchmarkWarmStartRoundsToBest tracks the transfer-learning win as a
// benchmark artifact: the same search run cold and warm-started from five
// sibling priors, reporting how many evaluation rounds each needs to
// reach its own best value (the fleet's rounds-to-best metric). The seed
// is fixed, so rounds-to-best is deterministic; ns/op tracks the cost of
// conditioning the surrogate on transferred observations.
func BenchmarkWarmStartRoundsToBest(b *testing.B) {
	priors := siblingPriors(b, 5)
	run := func(b *testing.B, priors []PriorObs) {
		var rounds int
		for i := 0; i < b.N; i++ {
			opt := DefaultOptions()
			opt.MaxIters = 30
			opt.InitPoints = 6
			opt.Seed = 1
			opt.Candidates = 128
			opt.PriorObservations = priors
			res, err := MinimizeContext(context.Background(), goldenSpace(), goldenObj, opt)
			if err != nil {
				b.Fatal(err)
			}
			rounds = 0
			for j, e := range res.History {
				if e.Err == nil && e.Value == res.BestValue {
					rounds = j + 1
					break
				}
			}
		}
		b.ReportMetric(float64(rounds), "rounds-to-best")
	}
	b.Run("cold", func(b *testing.B) { run(b, nil) })
	b.Run("warm", func(b *testing.B) { run(b, priors) })
}
