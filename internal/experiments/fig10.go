package experiments

import (
	"fmt"
	"math"
	"time"

	"loaddynamics/internal/autoscale"
	"loaddynamics/internal/cloudinsight"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/predictors"
	"loaddynamics/internal/timeseries"
	"loaddynamics/internal/traces"
)

// Fig10Row is one predictor's bar group in Fig. 10: turnaround time plus
// under- and over-provisioning rates from the auto-scaling case study.
type Fig10Row struct {
	Predictor string
	Metrics   *autoscale.Metrics
	// Policy carries the extended cost/pool metrics when the row came from
	// a retention-policy run (nil for plain Fig. 10 rows).
	Policy *autoscale.PolicyMetrics
}

// Fig10MaxJobs caps the per-interval arrivals in the case study, mirroring
// the paper's scale-down of the Azure JARs so fewer than 50 VMs are needed
// per interval (Google Cloud quota / cost constraint).
const Fig10MaxJobs = 45

// Fig10 reproduces the auto-scaling case study (Section IV-C): the Azure
// 60-minute workload, JARs scaled down so at most Fig10MaxJobs jobs arrive
// per interval, executed under the predictive provisioning policy with
// LoadDynamics, CloudInsight and Wood et al. (CloudScale was dropped by the
// paper for cost reasons; its accuracy tracked Wood's).
func Fig10(sc Scale) ([]Fig10Row, error) {
	w, err := BuildWorkload(traces.WorkloadConfig{Kind: traces.Azure, IntervalMinutes: 60}, sc)
	if err != nil {
		return nil, err
	}
	scaleDownJobs(w)

	simCfg := autoscale.DefaultSimConfig()
	simCfg.Seed = sc.Seed

	known := w.Known()
	test := w.Split.Test.Values

	// LoadDynamics: built once on train/validate, static during the run.
	ldRes, _, err := BuildLoadDynamics(w, sc)
	if err != nil {
		return nil, err
	}

	// The Section V adaptive variant: the same model on the fleet's loop,
	// with drift-triggered re-optimization during the run (the baselines
	// refit every 5 intervals, so this is the apples-to-apples LoadDynamics).
	adaptive, err := fleet.NewAdaptive(fleet.Options{
		HistoryCap: 600,
		Build:      sc.frameworkConfig(traces.Azure),
	}, ldRes.Best, known)
	if err != nil {
		return nil, err
	}

	runs := []struct {
		name  string
		p     predictors.Predictor
		refit int
	}{
		{"loaddynamics", ldRes.Best, 0},
		{"ld-adaptive", adaptive, 0},
		{"cloudinsight", nil, cloudinsight.RebuildInterval},
		{"wood", nil, cloudinsight.RebuildInterval},
	}
	var rows []Fig10Row
	for _, r := range runs {
		p := r.p
		if p == nil {
			bp, err := NewBaseline(BaselineName(r.name), sc.BaselineLag)
			if err != nil {
				return nil, err
			}
			if err := bp.Fit(known); err != nil {
				return nil, fmt.Errorf("experiments: Fig10 fitting %s: %w", r.name, err)
			}
			p = bp
		}
		m, err := autoscale.Simulate(p, known, test, r.refit, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig10 simulating %s: %w", r.name, err)
		}
		rows = append(rows, Fig10Row{Predictor: r.name, Metrics: m})
	}
	return rows, nil
}

// scaleDownJobs rescales the workload (in place) so the maximum JAR is
// Fig10MaxJobs, rounding to whole jobs, and repartitions.
func scaleDownJobs(w *Workload) {
	maxV := 0.0
	for _, v := range w.Series.Values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= Fig10MaxJobs || maxV == 0 {
		return
	}
	f := Fig10MaxJobs / maxV
	for i, v := range w.Series.Values {
		w.Series.Values[i] = math.Round(v * f)
	}
	w.Split = timeseries.DefaultSplit(w.Series)
}

// FormatTurnaround renders a duration the way Fig. 10a labels it.
func FormatTurnaround(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}
