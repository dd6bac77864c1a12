package harness_test

import (
	"reflect"
	"sort"
	"testing"

	"lazydet/internal/harness"
	"lazydet/internal/opensim"
	"lazydet/internal/telemetry"
	"lazydet/internal/workloads"
)

// unpinnedValues are the snapshot counters whose values depend on the
// runtime scheduler rather than the deterministic schedule (the report's
// Timing half: arbiter wake and election work, fast-path chain grants, pool
// hit counts). Their names are pinned; their values are not.
var unpinnedValues = map[string]bool{
	"dlc.wakes":               true,
	"dlc.grant_work":          true,
	"dlc.chain_fast":          true,
	"vheap.frame_pool_hits":   true,
	"vheap.frame_pool_misses": true,
	"vheap.page_pool_hits":    true,
	"vheap.page_pool_misses":  true,
}

// TestSnapshotPinned pins the whole telemetry snapshot — every counter,
// gauge and histogram name, and every deterministic value and bucket — of a
// small Consequence run, a small LazyDet run and one open-loop simulation
// cell. The constants were taken from the name-keyed recorder before the
// engine and heap metrics became registered counters; a change in how
// metrics are collected must reproduce them exactly.
func TestSnapshotPinned(t *testing.T) {
	ht := func(eng harness.EngineKind) telemetry.Snapshot {
		w := workloads.NewHashTable(workloads.DefaultHTConfig(workloads.HT))
		res, err := harness.Run(w, harness.Options{
			Engine: eng, Threads: 2, Telemetry: true, CollectSpec: eng == harness.LazyDet, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Telemetry.Snapshot()
	}
	sim := func() telemetry.Snapshot {
		res, err := opensim.Run(opensim.Config{Engine: harness.LazyDet, Workers: 2, Requests: 40, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Harness.Telemetry.Snapshot()
	}
	for _, tc := range []struct {
		name string
		got  telemetry.Snapshot
		want telemetry.Snapshot
	}{
		{"ht/Consequence/t2", ht(harness.Consequence), pinnedHTConsequence},
		{"ht/LazyDet/t2", ht(harness.LazyDet), pinnedHTLazyDet},
		{"sim/LazyDet/w2/r40", sim(), pinnedSimLazyDet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := keys(tc.got.Counters), keys(tc.want.Counters); !reflect.DeepEqual(got, want) {
				t.Fatalf("counter names:\n got %v\nwant %v", got, want)
			}
			for k, v := range tc.want.Counters {
				if !unpinnedValues[k] && tc.got.Counters[k] != v {
					t.Errorf("counter %s = %d, want %d", k, tc.got.Counters[k], v)
				}
			}
			if !reflect.DeepEqual(tc.got.Gauges, tc.want.Gauges) {
				t.Errorf("gauges:\n got %v\nwant %v", tc.got.Gauges, tc.want.Gauges)
			}
			if !reflect.DeepEqual(tc.got.Histograms, tc.want.Histograms) {
				t.Errorf("histograms:\n got %v\nwant %v", tc.got.Histograms, tc.want.Histograms)
			}
		})
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var pinnedHTConsequence = telemetry.Snapshot{
	Counters: map[string]int64{
		"commit.elided":             73,
		"dlc.chain_fast":            237,
		"dlc.chain_hits":            237,
		"dlc.grant_work":            9793,
		"dlc.tick_flushes":          1947,
		"dlc.total":                 9081,
		"dlc.wakes":                 1458,
		"dvm.retired.branch_unless": 2632,
		"dvm.retired.do":            1832,
		"dvm.retired.halt":          2,
		"dvm.retired.jump":          915,
		"dvm.retired.load":          515,
		"dvm.retired.lock":          515,
		"dvm.retired.store":         95,
		"dvm.retired.unlock":        515,
		"mempipe.publishes":         95,
		"sync.events":               1030,
		"turn.waits":                1032,
		"vheap.commits":             95,
		"vheap.frame_pool_hits":     157,
		"vheap.frame_pool_misses":   5,
		"vheap.page_pool_hits":      70,
		"vheap.page_pool_misses":    25,
		"vheap.pages_committed":     95,
		"vheap.stage_flushes":       73,
		"vheap.stage_publishes":     73,
		"vheap.words_committed":     95,
		"vheap.words_scanned":       95,
	},
	Gauges: map[string]float64{
		"dlc.arbiter_depth": 1,
	},
	Histograms: map[string]telemetry.HistSnapshot{
		"mempipe.publish_dirty_words": {N: 95, Sum: 22, Buckets: map[string]int64{"0": 73, "1": 22}},
		"vheap.commit_words":          {N: 95, Sum: 95, Buckets: map[string]int64{"1": 95}},
	},
}

var pinnedHTLazyDet = telemetry.Snapshot{
	Counters: map[string]int64{
		"commit.elided":             5,
		"dlc.chain_fast":            18,
		"dlc.chain_hits":            19,
		"dlc.grant_work":            701,
		"dlc.tick_flushes":          2120,
		"dlc.total":                 7757,
		"dlc.wakes":                 98,
		"dvm.retired.branch_unless": 2852,
		"dvm.retired.do":            1987,
		"dvm.retired.halt":          3,
		"dvm.retired.jump":          993,
		"dvm.retired.load":          561,
		"dvm.retired.lock":          564,
		"dvm.retired.store":         104,
		"dvm.retired.unlock":        561,
		"mempipe.publishes":         44,
		"spec.commits":              50,
		"spec.committed_cs":         396,
		"spec.conflict_reverts":     4,
		"spec.reverted_words":       9,
		"spec.reverts":              4,
		"spec.runs":                 54,
		"spec.spec_acquires":        555,
		"spec.total_acquires":       561,
		"spec.upgrades":             0,
		"sync.events":               1176,
		"turn.waits":                68,
		"vheap.commits":             43,
		"vheap.frame_pool_hits":     89,
		"vheap.frame_pool_misses":   14,
		"vheap.page_pool_hits":      63,
		"vheap.page_pool_misses":    30,
		"vheap.pages_committed":     93,
		"vheap.stage_flushes":       4,
		"vheap.stage_publishes":     5,
		"vheap.words_committed":     95,
		"vheap.words_scanned":       95,
	},
	Gauges: map[string]float64{
		"dlc.arbiter_depth": 1,
		"spec.acquire_pct":  98.93048128342247,
		"spec.success_pct":  92.5925925925926,
	},
	Histograms: map[string]telemetry.HistSnapshot{
		"mempipe.publish_dirty_words": {N: 44, Sum: 87, Buckets: map[string]int64{"0": 5, "1": 10, "2": 24, "4": 5}},
		"spec.revert_words":           {N: 4, Sum: 9, Buckets: map[string]int64{"1": 2, "2": 1, "4": 1}},
		"vheap.commit_words":          {N: 43, Sum: 95, Buckets: map[string]int64{"1": 12, "2": 25, "4": 6}},
	},
}

var pinnedSimLazyDet = telemetry.Snapshot{
	Counters: map[string]int64{
		"commit.elided":             47,
		"dlc.chain_fast":            778,
		"dlc.chain_hits":            779,
		"dlc.grant_work":            15109,
		"dlc.tick_flushes":          4646,
		"dlc.total":                 50771,
		"dlc.wakes":                 1344,
		"dvm.retired.branch_unless": 4051,
		"dvm.retired.do":            2429,
		"dvm.retired.halt":          3,
		"dvm.retired.jump":          2278,
		"dvm.retired.load":          2802,
		"dvm.retired.lock":          1053,
		"dvm.retired.rlock":         154,
		"dvm.retired.runlock":       150,
		"dvm.retired.store":         651,
		"dvm.retired.unlock":        993,
		"mempipe.publishes":         132,
		"sim.requests":              40,
		"spec.commits":              48,
		"spec.committed_cs":         174,
		"spec.conflict_reverts":     64,
		"spec.reverted_words":       266,
		"spec.reverts":              64,
		"spec.runs":                 112,
		"spec.spec_acquires":        488,
		"spec.total_acquires":       1143,
		"spec.upgrades":             0,
		"turn.waits":                1465,
		"vheap.commits":             132,
		"vheap.frame_pool_hits":     228,
		"vheap.frame_pool_misses":   12,
		"vheap.page_pool_hits":      168,
		"vheap.page_pool_misses":    16,
		"vheap.pages_committed":     184,
		"vheap.stage_flushes":       47,
		"vheap.stage_publishes":     47,
		"vheap.words_committed":     313,
		"vheap.words_scanned":       314,
	},
	Gauges: map[string]float64{
		"dlc.arbiter_depth":   2,
		"sim.latency_p50":     114,
		"sim.latency_p95":     553,
		"sim.latency_p99":     704,
		"sim.makespan_dlc":    15886,
		"sim.qdepth_max":      3,
		"sim.qdepth_mean":     1.125,
		"sim.throughput_kdlc": 2.517940324814302,
		"sim.wait_p95":        232,
		"spec.acquire_pct":    42.69466316710411,
		"spec.success_pct":    42.857142857142854,
	},
	Histograms: map[string]telemetry.HistSnapshot{
		"mempipe.publish_dirty_words": {N: 132, Sum: 195, Buckets: map[string]int64{"0": 47, "1": 38, "2": 20, "4": 27}},
		"sim.latency_dlc":             {N: 40, Sum: 7375, Buckets: map[string]int64{"64": 25, "128": 4, "256": 8, "512": 3}},
		"spec.revert_words":           {N: 64, Sum: 266, Buckets: map[string]int64{"0": 48, "1": 2, "2": 1, "4": 3, "16": 10}},
		"vheap.commit_words":          {N: 132, Sum: 313, Buckets: map[string]int64{"1": 57, "2": 28, "4": 47}},
	},
}
