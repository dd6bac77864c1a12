package harness_test

import (
	"testing"

	"lazydet/internal/harness"
	"lazydet/internal/workloads"
)

// BenchmarkTelemetryOverhead measures what the metrics registry costs a
// run: the same ht Consequence run with Options.Telemetry off and on. The
// on/off ratio of the two sub-benchmarks' ns/op is the instrumentation's
// share of the run; Consequence takes a turn at every lock and unlock, so
// it publishes the most per-event metrics per operation.
func BenchmarkTelemetryOverhead(b *testing.B) {
	cfg := workloads.DefaultHTConfig(workloads.HT)
	cfg.OpsPerThread = 1000
	w := workloads.NewHashTable(cfg)
	for _, tc := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := harness.Run(w, harness.Options{Engine: harness.Consequence, Threads: 4, Telemetry: tc.on}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
