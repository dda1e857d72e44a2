package loaddynamics

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the ablation benches called out in DESIGN.md and
// micro-benchmarks for the heavy kernels. Each experiment benchmark runs at
// the Tiny scale so `go test -bench=.` completes in minutes; regenerate the
// paper-scale artifacts with `go run ./cmd/experiments -scale quick` (or
// -scale full). MAPE values and other figure quantities are attached to the
// benchmark output via b.ReportMetric, so a bench run doubles as a results
// table.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"loaddynamics/internal/autoscale"
	"loaddynamics/internal/bo"
	"loaddynamics/internal/core"
	"loaddynamics/internal/experiments"
	"loaddynamics/internal/gp"
	"loaddynamics/internal/mat"
	"loaddynamics/internal/nn"
	"loaddynamics/internal/traces"
)

// benchScale is the budget used by the experiment benchmarks.
func benchScale() experiments.Scale { return experiments.Tiny() }

// BenchmarkFig1Traces regenerates the Fig. 1 traces (Google, Wikipedia,
// Facebook).
func BenchmarkFig1Traces(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		series, err := experiments.TraceSeries(1, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 3 {
			b.Fatal("wrong series count")
		}
	}
}

// BenchmarkFig8Traces regenerates the Fig. 8 traces (Azure, LCG).
func BenchmarkFig8Traces(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		series, err := experiments.TraceSeries(8, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 2 {
			b.Fatal("wrong series count")
		}
	}
}

// BenchmarkFig2PriorPredictors regenerates Fig. 2: the three prior
// predictors on the Fig. 1 workloads. The reported metrics are the
// workload-averaged MAPEs.
func BenchmarkFig2PriorPredictors(b *testing.B) {
	sc := benchScale()
	var rows []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig2(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ci, cs, wd float64
	for _, r := range rows {
		ci += r.CloudInsight / float64(len(rows))
		cs += r.CloudScale / float64(len(rows))
		wd += r.Wood / float64(len(rows))
	}
	b.ReportMetric(ci, "cloudinsight-mape%")
	b.ReportMetric(cs, "cloudscale-mape%")
	b.ReportMetric(wd, "wood-mape%")
}

// BenchmarkFig5HyperparamSweep regenerates Fig. 5: the error spread of LSTM
// models with random hyperparameters on the Google workload. The metrics
// report the worst/median/best MAPE (the paper observes a ≈3× spread).
func BenchmarkFig5HyperparamSweep(b *testing.B) {
	sc := benchScale()
	var pts []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig5(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst, median, best := experiments.SweepSpread(pts)
	b.ReportMetric(worst, "worst-mape%")
	b.ReportMetric(median, "median-mape%")
	b.ReportMetric(best, "best-mape%")
}

// fig9BenchConfigs is a representative subset of the 14 configurations (one
// per workload type) so the benchmark finishes in minutes; the full sweep
// is cmd/experiments -only fig9.
func fig9BenchConfigs() []traces.WorkloadConfig {
	return []traces.WorkloadConfig{
		{Kind: traces.Wikipedia, IntervalMinutes: 30},
		{Kind: traces.LCG, IntervalMinutes: 30},
		{Kind: traces.Azure, IntervalMinutes: 60},
		{Kind: traces.Google, IntervalMinutes: 30},
		{Kind: traces.Facebook, IntervalMinutes: 10},
	}
}

// BenchmarkFig9Accuracy regenerates Fig. 9 (and the data for Table IV) over
// one configuration per workload. Metrics report each predictor's average
// MAPE; the paper's ordering is LoadDynamics < CloudInsight < CloudScale ≈
// Wood, with brute force ≈ LoadDynamics.
func BenchmarkFig9Accuracy(b *testing.B) {
	sc := benchScale()
	var res *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig9(fig9BenchConfigs(), sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Avg.LoadDynamics, "loaddynamics-mape%")
	b.ReportMetric(res.Avg.BruteForce, "bruteforce-mape%")
	b.ReportMetric(res.Avg.CloudInsight, "cloudinsight-mape%")
	b.ReportMetric(res.Avg.CloudScale, "cloudscale-mape%")
	b.ReportMetric(res.Avg.Wood, "wood-mape%")
}

// BenchmarkTable4SelectedHyperparams regenerates Table IV from a Fig. 9
// subset run: the spread of hyperparameters LoadDynamics selects.
func BenchmarkTable4SelectedHyperparams(b *testing.B) {
	sc := benchScale()
	var t4 []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(fig9BenchConfigs(), sc)
		if err != nil {
			b.Fatal(err)
		}
		t4 = experiments.Table4(res.Rows)
	}
	b.ReportMetric(float64(len(t4)), "workloads")
}

// BenchmarkFig10AutoScaling regenerates the Fig. 10 case study. Metrics
// report LoadDynamics' turnaround and provisioning rates.
func BenchmarkFig10AutoScaling(b *testing.B) {
	sc := benchScale()
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig10(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Predictor == "loaddynamics" {
			b.ReportMetric(r.Metrics.AvgTurnaround.Seconds(), "ld-turnaround-s")
			b.ReportMetric(r.Metrics.UnderProvisionRate, "ld-under%")
			b.ReportMetric(r.Metrics.OverProvisionRate, "ld-over%")
		}
	}
}

// BenchmarkAblationSearchStrategies compares BO vs random vs grid search at
// the scale budget (the Section III-A design choice).
func BenchmarkAblationSearchStrategies(b *testing.B) {
	sc := benchScale()
	cfg := traces.WorkloadConfig{Kind: traces.Google, IntervalMinutes: 30}
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationSearchStrategies(cfg, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ValMAPE, r.Variant+"-mape%")
	}
}

// BenchmarkAblationScalers compares min-max vs z-score input scaling with
// fixed hyperparameters.
func BenchmarkAblationScalers(b *testing.B) {
	sc := benchScale()
	cfg := traces.WorkloadConfig{Kind: traces.Wikipedia, IntervalMinutes: 30}
	hp := core.Hyperparams{HistoryLen: 12, CellSize: 6, Layers: 1, BatchSize: 16}
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationScalers(cfg, sc, hp)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ValMAPE, r.Variant+"-mape%")
	}
}

// BenchmarkAblationParallelism measures serial vs parallel BO candidate
// evaluation (identical budgets).
func BenchmarkAblationParallelism(b *testing.B) {
	sc := benchScale()
	cfg := traces.WorkloadConfig{Kind: traces.Google, IntervalMinutes: 30}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationParallelism(cfg, sc, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Elapsed.Seconds(), r.Variant+"-s")
			}
		}
	}
}

// BenchmarkAblationAcquisitions compares the EI, LCB and PI acquisition
// functions at identical budgets.
func BenchmarkAblationAcquisitions(b *testing.B) {
	sc := benchScale()
	cfg := traces.WorkloadConfig{Kind: traces.Google, IntervalMinutes: 30}
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationAcquisitions(cfg, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ValMAPE, r.Variant+"-mape%")
	}
}

// BenchmarkAblationRetention compares the paper's one-interval VM policy
// with retention variants under the same LoadDynamics predictor.
func BenchmarkAblationRetention(b *testing.B) {
	sc := benchScale()
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationRetention(sc, []int{0, 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy != nil {
			b.ReportMetric(r.Metrics.UnderProvisionRate, r.Predictor+"-under%")
			b.ReportMetric(r.Policy.VMHours, r.Predictor+"-vmh")
		}
	}
}

// BenchmarkAutoScaleSimulator measures the raw simulator throughput with an
// oracle predictor.
func BenchmarkAutoScaleSimulator(b *testing.B) {
	horizon := make([]float64, 1000)
	for i := range horizon {
		horizon[i] = 30
	}
	cfg := autoscale.DefaultSimConfig()
	oracle := &autoscale.Oracle{Horizon: horizon, History: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autoscale.Simulate(oracle, nil, horizon, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks for the heavy kernels ---

// BenchmarkLSTMTrainEpoch measures one training epoch of a typical
// mid-sized candidate (n=32, s=16, 2 layers, batch 32).
func BenchmarkLSTMTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewLSTM(nn.Config{InputSize: 1, HiddenSize: 16, Layers: 2, OutputSize: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	const n, samples = 32, 256
	inputs := make([][]float64, samples)
	targets := make([]float64, samples)
	for i := range inputs {
		inputs[i] = make([]float64, n)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()
		}
		targets[i] = rng.Float64()
	}
	tc := nn.TrainConfig{Epochs: 1, BatchSize: 32, LearningRate: 1e-3, ClipNorm: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Train(inputs, targets, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMInference measures single-step prediction latency (the
// paper reports < 4.78 ms per inference).
func BenchmarkLSTMInference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net, err := nn.NewLSTM(nn.Config{InputSize: 1, HiddenSize: 64, Layers: 3, OutputSize: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	hist := make([]float64, 128)
	for i := range hist {
		hist[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(hist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul measures the parallel matrix multiply on BO/GP-sized
// operands.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := mat.New(128, 128)
	c := mat.New(128, 128)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		c.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMul(a, c)
	}
}

// BenchmarkBOMinimize compares the serial search against constant-liar
// batch-parallel search on a latency-bound objective (each evaluation
// sleeps ~2 ms, standing in for an LSTM training run blocked on I/O or
// other cores). Parallel=4 should cut wall-clock by ≥2× even on one CPU.
func BenchmarkBOMinimize(b *testing.B) {
	space := bo.Space{Params: []bo.Param{
		{Name: "x", Min: 0, Max: 100},
		{Name: "y", Min: 1, Max: 64, Log: true},
		{Name: "z", Min: 0, Max: 30},
	}}
	obj := func(p []int) (float64, error) {
		time.Sleep(2 * time.Millisecond)
		dx := float64(p[0] - 30)
		dy := float64(p[1] - 8)
		dz := float64(p[2] - 11)
		return dx*dx/100 + dy*dy + dz*dz/9, nil
	}
	for _, par := range []int{1, 4} {
		name := "Serial"
		if par > 1 {
			name = fmt.Sprintf("Parallel%d", par)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := bo.DefaultOptions()
				opt.MaxIters = 24
				opt.InitPoints = 6
				opt.Seed = 42
				opt.Candidates = 64
				opt.Parallel = par
				if _, err := bo.MinimizeContext(context.Background(), space, obj, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGPAppendVsRefit measures the O(n²) incremental Cholesky update
// against the O(n³) full refit when adding one observation to an n-point
// posterior — the operation the constant-liar loop performs per batch pick.
func BenchmarkGPAppendVsRefit(b *testing.B) {
	for _, n := range []int{32, 128} {
		rng := rand.New(rand.NewSource(5))
		x := make([][]float64, n+1)
		y := make([]float64, n+1)
		for i := range x {
			x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			y[i] = rng.Float64()
		}
		kernel := gp.Matern52{LengthScale: 0.5, Variance: 1}
		g, err := gp.Fit(x[:n], y[:n], kernel, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Append/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Append(x[n], y[n]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Refit/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gp.Fit(x, y, kernel, 1e-4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGPFitPredict measures the Gaussian-process surrogate at the BO
// budget size (100 observations, 4 dimensions).
func BenchmarkGPFitPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 100
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := gp.Fit(x, y, gp.Matern52{LengthScale: 0.5, Variance: 1}, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		g.Predict([]float64{0.5, 0.5, 0.5, 0.5})
	}
}
