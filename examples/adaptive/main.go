// Adaptive: the "Online Adaptive Modeling" extension sketched in the
// paper's Section V. A static LoadDynamics model degrades when the workload
// shifts to a pattern absent from its training data; the adaptive model
// watches the rolling prediction error and re-runs the optimization
// workflow on recent data when drift is detected. It runs on the fleet's
// loop — the evaluator, drift rule and rebuild path the server runs — with
// each rebuild completing inside the Predict call that queued it.
//
// The example streams a workload that abruptly changes pattern (level,
// amplitude and period all shift) and prints the rolling error of a static
// model versus the adaptive one.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"math"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
)

func main() {
	log.SetFlags(0)

	// A workload whose pattern hard-switches at interval 260.
	const change = 260
	series := make([]float64, 560)
	for i := range series {
		if i < change {
			series[i] = 1000 + 300*math.Sin(2*math.Pi*float64(i)/24)
		} else {
			series[i] = 3000 + 900*math.Sin(2*math.Pi*float64(i)/12)
		}
	}

	fw := core.Config{
		Space:      core.ScaledSpace(24, 16, 2, 64),
		MaxIters:   6,
		InitPoints: 3,
		Seed:       1,
		Scaler:     "minmax",
		Parallel:   4,
	}

	// Static model: built once on the pre-change data.
	staticF, err := core.New(fw)
	if err != nil {
		log.Fatal(err)
	}
	staticRes, err := staticF.Build(series[:180], series[180:230])
	if err != nil {
		log.Fatal(err)
	}
	static := staticRes.Best

	// Adaptive model: the same initial model on a one-workload fleet, plus
	// drift detection and rebuilds over the trailing 150 intervals.
	adaptive, err := fleet.NewAdaptive(fleet.Options{
		Window:            10,
		MinSamples:        10,
		DriftFactor:       2.5,
		DriftThreshold:    12,
		HistoryCap:        150,
		MinRebuildHistory: 64,
		Build:             fw,
	}, static, series[:230])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial model: %s (validation MAPE %.1f%%)\n\n", adaptive.Model().HP, adaptive.Model().ValError)
	fmt.Printf("%-18s %12s %12s %10s\n", "intervals", "static MAPE", "adaptive MAPE", "rebuilds")

	known := append([]float64(nil), series[:230]...)
	var sErr, aErr []float64
	report := func(lo, hi int) {
		fmt.Printf("%5d-%-12d %11.1f%% %12.1f%% %10d\n",
			lo, hi, mean(sErr), mean(aErr), adaptive.Rebuilds())
		sErr, aErr = nil, nil
	}
	blockStart := 230
	for i := 230; i < len(series); i++ {
		actual := series[i]
		sp, err := static.Predict(known)
		if err != nil {
			log.Fatal(err)
		}
		ap, err := adaptive.Predict(known)
		if err != nil {
			log.Fatal(err)
		}
		sErr = append(sErr, 100*math.Abs((sp-actual)/actual))
		aErr = append(aErr, 100*math.Abs((ap-actual)/actual))
		if err := adaptive.Observe(actual); err != nil {
			log.Fatal(err)
		}
		known = append(known, actual)
		if (i-230+1)%55 == 0 {
			report(blockStart, i)
			blockStart = i + 1
		}
	}
	fmt.Printf("\n(the pattern changes at interval %d; the adaptive model rebuilt %d time(s))\n",
		change, adaptive.Rebuilds())
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
