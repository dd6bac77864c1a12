// The report suite: the fixed set of runs lazydet-bench -report serializes
// and the CI perf gate diffs against bench/baseline.json.
//
// The suite only includes engines whose gated metrics are deterministic:
// pthreads (timing reference only — it publishes no deterministic metrics),
// Consequence, TotalOrder-Weak and LazyDet. TotalOrder-Weak-Nondet is
// excluded because its turn arbitration is nondeterministic by design, so
// its counters cannot be matched against a checked-in baseline.
package experiments

import (
	"fmt"

	"lazydet/internal/harness"
	"lazydet/internal/opensim"
	"lazydet/internal/telemetry"
	"lazydet/internal/workloads"
)

// reportEngines are the suite's engines, in report order.
var reportEngines = []harness.EngineKind{
	harness.Pthreads, harness.Consequence, harness.TotalOrderWeak, harness.LazyDet,
}

// ReportSuite runs the report suite — the ht and htlazy microbenchmarks
// under each reportEngines entry — with telemetry, tracing, blocked-time and
// speculation collection on, and returns the suite report. Thread count
// defaults to 4 (cfg.Threads overrides).
func ReportSuite(cfg Config) (*telemetry.SuiteReport, error) {
	cfg = cfg.withDefaults()
	threads := 4
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	suite := &telemetry.SuiteReport{Schema: telemetry.ReportSchema, Suite: "ht-microbench"}
	for _, variant := range []workloads.HTVariant{workloads.HT, workloads.HTLazy} {
		w := workloads.NewHashTable(workloads.DefaultHTConfig(variant))
		for _, e := range reportEngines {
			opt := harness.Options{
				Engine:       e,
				Threads:      threads,
				Telemetry:    true,
				MeasureTimes: true,
				Trace:        e != harness.Pthreads,
				CollectSpec:  e == harness.LazyDet,
				Compiled:     cfg.Compiled,
			}
			res, err := harness.Run(w, opt)
			if err != nil {
				return nil, fmt.Errorf("report suite: %s under %s: %w", w.Name, e, err)
			}
			r := harness.BuildReport(res)
			suite.Runs = append(suite.Runs, r)
			cfg.printf("%-28s wall %-12v %d deterministic metrics\n", r.Key(), res.Wall, len(r.Metrics))

			// Threaded-code rows for the strong engines, keyed
			// <workload>/compiled so the baseline pins both backends. Their
			// gated metrics must stay bit-identical to the interpreter rows
			// above; the Timing section carries the wall-time difference the
			// backend actually buys.
			if e == harness.Consequence || e == harness.LazyDet {
				copt := opt
				copt.Compiled = true
				cres, err := harness.Run(w, copt)
				if err != nil {
					return nil, fmt.Errorf("report suite: %s/compiled under %s: %w", w.Name, e, err)
				}
				cr := harness.BuildReport(cres)
				cr.Workload += "/compiled"
				suite.Runs = append(suite.Runs, cr)
				cfg.printf("%-28s wall %-12v %d deterministic metrics\n", cr.Key(), cres.Wall, len(cr.Metrics))
			}

			// Statically hinted LazyDet rows, keyed <workload>/hints: the
			// same run with the progcheck footprint verdicts seeding the
			// speculation policy. Diffing the spec.* metrics (successes,
			// reverts, spec.conflict_reverts) against the unhinted row above
			// is the suite's measure of what the static hints buy; the
			// progcheck.hints.* counters pin the verdict distribution
			// itself. Both rows are gated — the deltas are deterministic.
			if e == harness.LazyDet {
				hopt := opt
				hopt.SpecHints = true
				hres, err := harness.Run(w, hopt)
				if err != nil {
					return nil, fmt.Errorf("report suite: %s/hints under %s: %w", w.Name, e, err)
				}
				hr := harness.BuildReport(hres)
				hr.Workload += "/hints"
				suite.Runs = append(suite.Runs, hr)
				cfg.printf("%-28s wall %-12v %d deterministic metrics\n", hr.Key(), hres.Wall, len(hr.Metrics))
			}
		}
	}
	// Scale rows: the ht microbenchmark at high thread counts (total
	// operation count held constant), pinning the tournament arbiter's and
	// versioned heap's deterministic metrics — DLC totals, commit counts,
	// arbiter depth — where regressions in turn arbitration at scale would
	// surface. Only run when cfg.Threads doesn't already override the
	// suite's thread count.
	if cfg.Threads == 0 {
		for _, scaleThreads := range []int{64, 256} {
			htCfg := workloads.DefaultHTConfig(workloads.HT)
			htCfg.OpsPerThread = 2048 / scaleThreads
			w := workloads.NewHashTable(htCfg)
			for _, e := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
				opt := harness.Options{
					Engine:      e,
					Threads:     scaleThreads,
					Telemetry:   true,
					Trace:       true,
					CollectSpec: e == harness.LazyDet,
					Compiled:    cfg.Compiled,
				}
				res, err := harness.Run(w, opt)
				if err != nil {
					return nil, fmt.Errorf("report suite: %s under %s at t=%d: %w", w.Name, e, scaleThreads, err)
				}
				r := harness.BuildReport(res)
				suite.Runs = append(suite.Runs, r)
				cfg.printf("%-28s wall %-12v %d deterministic metrics\n", r.Key(), res.Wall, len(r.Metrics))

				// Compiled scale rows: schedule equivalence of the two
				// backends is pinned at high thread counts too.
				copt := opt
				copt.Compiled = true
				cres, err := harness.Run(w, copt)
				if err != nil {
					return nil, fmt.Errorf("report suite: %s/compiled under %s at t=%d: %w", w.Name, e, scaleThreads, err)
				}
				cr := harness.BuildReport(cres)
				cr.Workload += "/compiled"
				suite.Runs = append(suite.Runs, cr)
				cfg.printf("%-28s wall %-12v %d deterministic metrics\n", cr.Key(), cres.Wall, len(cr.Metrics))
			}
		}
	}
	// Open-loop simulation rows: the CI smoke grid's cells, keyed sim/*.
	// Their latency percentiles are deterministic, so they are gated like
	// every other sim metric; the grid's own Verify double-run cross-checks
	// each cell's schedule first. Skipped when cfg.Threads overrides the
	// suite (the grid carries its own worker dimension). The grid's CSV
	// output is suppressed here — lazydet-sim is the CSV front end.
	if cfg.Threads == 0 {
		gridCfg := cfg
		gridCfg.CSVDir = ""
		simSuite, err := RunGrid(gridCfg, CIGrid())
		if err != nil {
			return nil, fmt.Errorf("report suite: %w", err)
		}
		suite.Runs = append(suite.Runs, simSuite.Runs...)

		// Hinted-simulation pair: one open-loop service cell with the static
		// speculation hints off and on, keyed sim/hints-off and sim/hints-on.
		// The hinted run is a different — still deterministic — schedule
		// (the queue lock classifies Conflicting, so the hinted policy skips
		// its warm-up speculation), so both rows are pinned whole rather
		// than asserted equal; the spec.* deltas between them measure the
		// hints' payoff under queueing load.
		for _, hinted := range []bool{false, true} {
			sc := opensim.Config{Engine: harness.LazyDet, Seed: 7, SpecHints: hinted, Compiled: cfg.Compiled}
			sres, err := opensim.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("report suite: sim hints pair (hinted=%v): %w", hinted, err)
			}
			r := harness.BuildReport(sres.Harness)
			r.Workload = "sim/hints-off"
			if hinted {
				r.Workload = "sim/hints-on"
			}
			suite.Runs = append(suite.Runs, r)
			cfg.printf("%-28s wall %-12v %d deterministic metrics\n", r.Key(), sres.Harness.Wall, len(r.Metrics))
		}
	}
	return suite, nil
}
