package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lazydet/internal/harness"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
)

// minCoverage is the least share of every thread span that hook time plus
// dvm self time must account for in a traced run.
const minCoverage = 0.95

// jsonHooks are the hooks whose call counts are per-layer metrics, and
// timedHooks those whose latency percentiles are: every workload calls the
// timed ones, so their percentiles always exist. Other hooks' figures are
// printed when they occur.
var (
	jsonHooks  = []hook{hLock, hUnlock, hRLock, hRUnlock, hBarrier, hTick, hExit}
	timedHooks = []hook{hLock, hUnlock, hTick, hExit}
)

// checkFidelity reports how the traced run of a deterministic engine
// differs from the untraced reference run of the same inputs: heap hash,
// trace signature, and every gated deterministic metric. The reference's
// sim.* gauges are computed by opensim from the final heap, which the heap
// hash already covers, so they are skipped.
func checkFidelity(tr *tracedRun, ref *harness.Result) []string {
	var diffs []string
	if tr.res.HeapHash != ref.HeapHash {
		diffs = append(diffs, fmt.Sprintf("heap hash %016x vs %016x", tr.res.HeapHash, ref.HeapHash))
	}
	if tr.res.TraceSig != ref.TraceSig {
		diffs = append(diffs, fmt.Sprintf("trace signature %016x vs %016x", tr.res.TraceSig, ref.TraceSig))
	}
	rt, rr := harness.BuildReport(tr.res), harness.BuildReport(ref)
	names := map[string]bool{}
	for k := range rt.Metrics {
		names[k] = true
	}
	for k := range rr.Metrics {
		names[k] = true
	}
	var sorted []string
	for k := range names {
		if gated, _ := telemetry.GatedMetric(k); gated && !strings.HasPrefix(k, "sim.") {
			sorted = append(sorted, k)
		}
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		vt, okt := rt.Metrics[k]
		vr, okr := rr.Metrics[k]
		if okt != okr || vt != vr {
			diffs = append(diffs, fmt.Sprintf("%s: traced %g vs untraced %g (present %v/%v)", k, vt, vr, okt, okr))
		}
	}
	return diffs
}

// tracedRuns runs every engine once under the tracer, checks each traced
// run against an untraced reference run, writes the spans out, and derives
// the per-layer metrics.
func (r *runner) tracedRuns(out string) error {
	runs := map[harness.EngineKind]*tracedRun{}
	for _, eng := range r.b.engines {
		r.attempted++
		tr, err := runTraced(r.b.w, eng, threads)
		if err != nil {
			r.fail("%s %s traced: %v", r.b.name, eng, err)
			continue
		}
		ok := r.checkHash(eng, tr.res.HeapHash, "traced run")
		lt := splitTimes(tr.tr)
		if lt.minCoverage < minCoverage || lt.maxCoverage > 1 {
			r.fail("%s %s traced: hooks plus dvm self time cover %.1f%% to %.1f%% of a thread span, want %.0f%% to 100%%",
				r.b.name, eng, 100*lt.minCoverage, 100*lt.maxCoverage, 100*minCoverage)
			ok = false
		}
		if eng.Deterministic() {
			r.attempted++
			ref, err := r.b.ref(eng)
			if err != nil {
				r.fail("%s %s reference: %v", r.b.name, eng, err)
				continue
			}
			if diffs := checkFidelity(tr, ref); len(diffs) > 0 {
				r.fail("%s %s: traced run differs from the untraced run: %s", r.b.name, eng, strings.Join(diffs, "; "))
				ok = false
			}
		}
		if ok {
			runs[eng] = tr
		}
		path := filepath.Join(out, "traces", fmt.Sprintf("%s.%s.spans.csv.gz", r.b.name, engineKey(eng)))
		if err := writeSpans(path, tr); err != nil {
			return err
		}
	}
	r.layerMetrics(runs)
	return nil
}

// layerMetrics derives the per-layer metrics. Metrics that exist on every
// workload go to the JSON result; the rest (pthreads, hooks only some
// workloads call) are printed.
func (r *runner) layerMetrics(runs map[harness.EngineKind]*tracedRun) {
	ops := float64(r.b.ops)
	r.layer["failed_ratio"] = metric{float64(len(r.failures)) / float64(r.attempted), "ratio"}
	retired := map[harness.EngineKind]float64{}
	for _, eng := range r.b.engines {
		tr := runs[eng]
		if tr == nil {
			continue
		}
		e := "." + engineKey(eng)
		m := r.layer
		if eng == harness.Pthreads {
			m = r.info
		}
		snap := tr.res.Telemetry.Snapshot()
		c := func(k string) float64 { return float64(snap.Counters[k]) }
		lt := splitTimes(tr.tr)

		m["harness.run_setup_ms"+e] = metric{median(r.perSample(eng, func(s sample) float64 {
			return float64(s.dur-s.wall) / 1e6
		})), "ms"}

		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "dvm.retired.") {
				retired[eng] += float64(v)
			}
		}
		if retired[eng] > 0 {
			m["dvm.ns_per_instr"+e] = metric{float64(lt.dvmNs) / retired[eng], "ns"}
		}
		m["dvm.mem_ops_per_op"+e] = metric{float64(lt.loads+lt.stores) / ops, "count"}

		for h := hook(0); h < nHooks; h++ {
			durs := lt.durs[h]
			name := "core." + h.String()
			if dst := pick(m, r.info, hasHook(jsonHooks, h)); len(durs) > 0 || hasHook(jsonHooks, h) {
				dst[name+".calls"+e] = metric{float64(len(durs)), "count"}
			}
			if len(durs) == 0 {
				continue
			}
			dst := pick(m, r.info, hasHook(timedHooks, h))
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			dst[name+".ns_p50"+e] = metric{float64(stats.Percentile(durs, 50)), "ns"}
			dst[name+".ns_p99"+e] = metric{float64(stats.Percentile(durs, 99)), "ns"}
		}
		m["core.hook_share"+e] = metric{float64(lt.hookNs) / float64(lt.threadNs), "ratio"}
		if base := r.opsPerS(eng); base > 0 {
			m["trace.ops_per_s_ratio"+e] = metric{ops / tr.dur.Seconds() / base, "ratio"}
		}
		r.info["trace.ops_per_s"+e] = metric{ops / tr.dur.Seconds(), "1/s"}
		r.info["trace.min_coverage"+e] = metric{lt.minCoverage, "ratio"}

		if eng == harness.Pthreads {
			r.info["dlc.blocked_pct"+e] = metric{tr.res.BlockedPct, "%"}
			continue
		}
		m["dlc.turn_waits_per_op"+e] = metric{c("turn.waits") / ops, "count"}
		m["dlc.grant_work_per_op"+e] = metric{float64(tr.res.ArbiterGrantWork) / ops, "count"}
		m["dlc.wakes_per_op"+e] = metric{float64(tr.res.ArbiterWakes) / ops, "count"}
		m["dlc.chain_hit_ratio"+e] = metric{ratio(float64(tr.res.ArbiterChainHits), c("turn.waits")), "ratio"}
		m["dlc.blocked_pct"+e] = metric{tr.res.BlockedPct, "%"}
		m["vheap.commits_per_op"+e] = metric{c("vheap.commits") / ops, "count"}
		m["vheap.words_committed_per_op"+e] = metric{c("vheap.words_committed") / ops, "count"}
		m["vheap.elided_ratio"+e] = metric{ratio(c("commit.elided"), c("commit.elided")+c("vheap.commits")), "ratio"}
		m["vheap.page_pool_miss_ratio"+e] = metric{ratio(c("vheap.page_pool_misses"), c("vheap.page_pool_hits")+c("vheap.page_pool_misses")), "ratio"}
		if eng == harness.LazyDet {
			m["spec.success_pct"] = metric{tr.res.Spec.SuccessPct(), "%"}
			m["spec.reverts_per_kop"] = metric{c("spec.reverts") * 1000 / ops, "count"}
		}
	}
	if retired[harness.LazyDet] > 0 && retired[harness.Consequence] > 0 {
		r.layer["spec.reexec_instr_pct"] = metric{100 * (retired[harness.LazyDet]/retired[harness.Consequence] - 1), "%"}
	}
	if l, c := r.opsPerS(harness.LazyDet), r.opsPerS(harness.Consequence); l > 0 && c > 0 {
		r.layer["core.slowdown_x.consequence_vs_lazydet"] = metric{l / c, "x"}
	}
}

func hasHook(hs []hook, h hook) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}

// pick returns a when cond holds, else b.
func pick(a, b map[string]metric, cond bool) map[string]metric {
	if cond {
		return a
	}
	return b
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes a traced run's spans as gzipped CSV: the dvm.Run span
// (id 0), one span per thread (ids 1..n, parent 0), then every hook call
// with its thread span as parent. Times are nanoseconds since dvm.Run began.
func writeSpans(path string, tr *tracedRun) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,thread,name,start_ns,end_ns")
	fmt.Fprintf(bw, "0,-1,-1,run,0,%d\n", tr.runNs)
	id := len(tr.tr.thr) + 1
	for i := range tr.tr.thr {
		spans := tr.tr.thr[i].spans
		var end int64
		if len(spans) > 0 {
			end = spans[len(spans)-1].end
		}
		fmt.Fprintf(bw, "%d,0,%d,thread,0,%d\n", i+1, i, end)
		for _, s := range spans {
			fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", id, i+1, i, s.hook, s.start, s.end)
			id++
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
