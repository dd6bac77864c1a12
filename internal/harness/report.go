// Run-report construction: folds the harness's measurements — the telemetry
// registry plus the legacy stats collectors (speculation, blocked time, the
// sync-order trace) — into one telemetry.RunReport, the unit lazydet-bench
// and lazydet-run serialize and the CI perf gate diffs.
package harness

import (
	"fmt"
	"sort"

	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
)

// absorbStats publishes the per-run stats collectors into the telemetry
// registry after the run, so the registry is the single reporting surface.
// The heap and the engine attach their per-event counters to the registry
// when they are built (vheap.WithTelemetry, the engine's Deps.Tel), and the
// registry reads those at snapshot; only the collectors that still live
// outside it are folded in here, once, at run end.
func absorbStats(tel *telemetry.Recorder, res *Result) {
	if s := res.Spec; s != nil {
		tel.Count("spec.total_acquires", s.TotalAcquires.Load())
		tel.Count("spec.spec_acquires", s.SpecAcquires.Load())
		tel.Count("spec.runs", s.Runs.Load())
		tel.Count("spec.commits", s.Commits.Load())
		tel.Count("spec.reverts", s.Reverts.Load())
		tel.Count("spec.committed_cs", s.CommittedCS.Load())
		tel.Count("spec.upgrades", s.Upgrades.Load())
		tel.SetGauge("spec.acquire_pct", s.SpecAcquirePct())
		tel.SetGauge("spec.success_pct", s.SuccessPct())
	}
	if res.LockReverts != nil {
		// Lock-attributed revert total: a deterministic function of the
		// schedule (ConflictReverts mutates only at turns), so gated. The
		// per-lock breakdown stays on Result.LockReverts for callers; only
		// the sum is a stable metric name across workloads.
		var sum int64
		for _, n := range res.LockReverts {
			sum += n
		}
		tel.Count("spec.conflict_reverts", sum)
	}
	if res.Recorder != nil {
		tel.Count("sync.events", res.SyncEvents)
	}
	if res.LiveVersions > 0 {
		tel.SetGauge("vheap.live_versions", float64(res.LiveVersions))
	}
}

// timingCounters names telemetry counters that carry wall time rather than
// deterministic counts; BuildReport routes them into the never-gated Timing
// section so Metrics stays reproducible across machines.
var timingCounters = map[string]bool{
	"progcheck.analysis_ns":  true,
	"progcheck.lockstate_ns": true,
	"progcheck.deadlock_ns":  true,
	"progcheck.race_ns":      true,
	"progcheck.footprint_ns": true,
	// The frame/page pool hit ratios depend on when the runtime scheduler
	// lets views register against the trim floor — an allocation detail,
	// not deterministic machine state — so they are informational only.
	"vheap.frame_pool_hits":   true,
	"vheap.frame_pool_misses": true,
	"vheap.page_pool_hits":    true,
	"vheap.page_pool_misses":  true,
	// Arbiter wakes and grant work count how often clock advances found a
	// blocked waiter and how many key comparisons elections cost — both a
	// function of which threads the runtime scheduler had blocked at each
	// instant, not of the deterministic schedule.
	"dlc.wakes":      true,
	"dlc.grant_work": true,
	// Fast-path chain grants additionally require the granted thread's
	// arrival to beat every rival's clock publication — a wall-clock race —
	// so they stay informational; dlc.chain_hits (the chance the fast path
	// chases) is deterministic and gated.
	"dlc.chain_fast": true,
	// Threaded-code lowering cost is wall time; the fusion statistics
	// depend only on the compiler's pattern tables, which may change
	// between versions without affecting the deterministic schedule, so
	// all three stay out of the gated metrics.
	"dvm.compile_ns":        true,
	"dvm.fused_blocks":      true,
	"dvm.superinstructions": true,
}

// GatedMetricDiffs compares two runs' gated metrics — every metric in the
// deterministic Metrics half of their reports, retired-opcode counts
// included — and describes every mismatch. Both runs must have been
// collected with Options.Telemetry.
func GatedMetricDiffs(a, b *Result) []string {
	ra, rb := BuildReport(a), BuildReport(b)
	names := make([]string, 0, len(ra.Metrics))
	for k := range ra.Metrics {
		names = append(names, k)
	}
	for k := range rb.Metrics {
		if _, dup := ra.Metrics[k]; !dup {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var diffs []string
	for _, k := range names {
		va, oka := ra.Metrics[k]
		vb, okb := rb.Metrics[k]
		if oka != okb || va != vb {
			diffs = append(diffs, fmt.Sprintf("%s: %g vs %g", k, va, vb))
		}
	}
	return diffs
}

// BuildReport converts one run's measurements into a report entry.
//
// Deterministic values (every telemetry counter and gauge — DLC totals,
// turn waits, commit word counts, speculation outcomes) land in Metrics,
// which the perf gate may fail on. Machine-dependent values (wall/CPU time,
// utilization, per-thread blocked time, revert-cost nanosecond percentiles)
// land in Timing, which is reported but never gated.
func BuildReport(res *Result) telemetry.RunReport {
	r := telemetry.RunReport{
		Workload: res.Workload,
		Engine:   res.Engine.String(),
		Threads:  res.Threads,
		HeapHash: fmt.Sprintf("%016x", res.HeapHash),
		Metrics:  map[string]float64{},
		Timing:   map[string]float64{},
	}
	if res.TraceSig != 0 {
		r.TraceSig = fmt.Sprintf("%016x", res.TraceSig)
	}
	if t := res.Telemetry; t != nil {
		snap := t.Snapshot()
		for k, v := range snap.Counters {
			if timingCounters[k] {
				r.Timing[k] = float64(v)
				continue
			}
			r.Metrics[k] = float64(v)
		}
		for k, v := range snap.Gauges {
			r.Metrics[k] = v
		}
		if len(snap.Histograms) > 0 {
			r.Histograms = snap.Histograms
		}
	}

	r.Timing["wall_ns"] = float64(res.Wall.Nanoseconds())
	r.Timing["cpu_ns"] = float64(res.CPU.Nanoseconds())
	if res.Allocs > 0 {
		r.Timing["allocs"] = float64(res.Allocs)
	}
	if res.Times != nil {
		r.Timing["utilization_pct"] = res.UtilizationPct
		r.Timing["blocked_pct"] = res.BlockedPct
		r.Timing["blocked_total_ns"] = float64(res.Times.TotalBlockedNs())
		for i := 0; i < res.Threads; i++ {
			r.Timing[fmt.Sprintf("blocked_ns.t%d", i)] = float64(res.Times.BlockedNs(i))
		}
	}
	if res.Spec != nil {
		if samples := res.Spec.RevertSamples(); len(samples) > 0 {
			costs := make([]int64, len(samples))
			for i, s := range samples {
				costs[i] = s.CostNs
			}
			sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
			for _, p := range []float64{50, 90, 99} {
				r.Timing[fmt.Sprintf("revert_ns.p%d", int(p))] = float64(stats.Percentile(costs, p))
			}
		}
	}
	return r
}
