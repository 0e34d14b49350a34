package experiment

import (
	"testing"

	"repro/internal/economy"
	"repro/internal/registry"
)

// BenchmarkRun measures Run end to end on commodity Set B suites at 150
// jobs per cell. cmd/benchjson captures it at Go's default benchtime; the
// paper-scale suites live in the repository root's bench_test.go.
func BenchmarkRun(b *testing.B) {
	for _, tc := range []struct {
		name       string
		scenarios  []string
		reps       int
		federation string
	}{
		// One full (12 scenarios × 6 values × 5 policies) suite — the
		// end-to-end shape of the paper's evaluation, worker pool included.
		{name: "commodity-small"},
		// One scenario, 4 replications per cell, through the (cell,
		// replication) worker pool — the fan-out path with its shared trace
		// cache and order-fixed reduce. sims/s is the unit throughput.
		{name: "replicated-cells", scenarios: []string{"workload"}, reps: 4},
		// One scenario through the 4-cluster hetero4 federation meta-broker
		// — per-job quote shopping across four live sessions plus the
		// per-cell federation merge.
		{name: "federated", scenarios: []string{"workload"}, federation: "hetero4"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultSuiteConfig(economy.Commodity, true)
			cfg.Jobs = 150
			cfg.ScenarioFilter = tc.scenarios
			fed, err := registry.ParseFederation(tc.federation)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Federation = fed
			unit, perCell := "jobs/s", cfg.Jobs
			if tc.reps > 0 {
				cfg.Replications = tc.reps
				unit, perCell = "sims/s", tc.reps
			}
			n := 0
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				n += res.Cells() * perCell
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(n)/s, unit)
			}
		})
	}
}
