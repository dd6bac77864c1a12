package telemetry

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *SuiteReport {
	return &SuiteReport{
		Schema: ReportSchema,
		Suite:  "unit",
		Runs: []RunReport{
			{
				Workload: "ht", Engine: "LazyDet", Threads: 4,
				HeapHash: "00000000deadbeef",
				Metrics: map[string]float64{
					"dlc.total":           1000,
					"vheap.words_scanned": 500,
					"spec.success_pct":    90,
					"spec.reverts":        4,
					"ungated.metric":      7,
				},
				Timing: map[string]float64{"wall_ns": 1e6},
				Histograms: map[string]HistSnapshot{
					"vheap.commit_words": {N: 3, Sum: 12, Buckets: map[string]int64{"4": 3}},
				},
			},
			{
				Workload: "ht", Engine: "Consequence", Threads: 4,
				Metrics: map[string]float64{"dlc.total": 2000},
			},
		},
	}
}

// TestReportRoundTrip: encode → decode is lossless and encoding is
// deterministic byte-for-byte.
func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var a, b bytes.Buffer
	if err := rep.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same report differ")
	}

	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 || got.Runs[0].Key() != "ht/LazyDet/t4" {
		t.Fatalf("round trip lost runs: %+v", got)
	}
	if got.Runs[0].Metrics["dlc.total"] != 1000 {
		t.Fatalf("round trip lost metrics: %v", got.Runs[0].Metrics)
	}
	if got.Runs[0].Histograms["vheap.commit_words"].Buckets["4"] != 3 {
		t.Fatalf("round trip lost histograms: %v", got.Runs[0].Histograms)
	}
}

func TestReadReportRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := ReadReport(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	wrong := filepath.Join(dir, "schema.json")
	os.WriteFile(wrong, []byte(`{"schema": 99, "suite": "x", "runs": []}`), 0o644)
	if _, err := ReadReport(wrong); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadReport(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCompareSelf: a report gated against itself passes with no changes —
// the acceptance criterion for `-baseline a.json -gate 15` self-comparison.
func TestCompareSelf(t *testing.T) {
	rep := sampleReport()
	c := Compare(rep, rep, 15)
	if !c.Ok() {
		t.Fatalf("self-comparison failed: %+v", c.Regressions)
	}
	if len(c.Changes) != 0 || len(c.TimingNotes) != 0 || len(c.MissingRuns) != 0 || len(c.NewRuns) != 0 {
		t.Fatalf("self-comparison not empty: %+v", c)
	}
	var buf bytes.Buffer
	c.Format(&buf)
	if !strings.Contains(buf.String(), "no deterministic metric changed") {
		t.Fatalf("format output: %q", buf.String())
	}
}

// TestCompareRegressions: inflated cost metrics past the gate fail it;
// movements within the gate, improvements and ungated metrics do not.
func TestCompareRegressions(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	r := &cur.Runs[0]
	r.Metrics["vheap.words_scanned"] = 700 // +40% on a gated, higher-is-worse metric
	r.Metrics["dlc.total"] = 1100          // +10%: inside a 15% gate
	r.Metrics["spec.reverts"] = 2          // improvement
	r.Metrics["ungated.metric"] = 100      // ungated: never fails
	c := Compare(base, cur, 15)
	if c.Ok() {
		t.Fatal("40% regression passed the gate")
	}
	if len(c.Regressions) != 1 || c.Regressions[0].Metric != "vheap.words_scanned" {
		t.Fatalf("regressions = %+v", c.Regressions)
	}
	if math.Abs(c.Regressions[0].Pct-40) > 1e-9 {
		t.Fatalf("pct = %v, want 40", c.Regressions[0].Pct)
	}
	if len(c.Changes) != 3 {
		t.Fatalf("changes = %+v, want dlc.total, spec.reverts, ungated.metric", c.Changes)
	}
	var buf bytes.Buffer
	c.Format(&buf)
	if !strings.Contains(buf.String(), "REGRESSIONS (1)") {
		t.Fatalf("format output: %q", buf.String())
	}

	// A success rate is gated in the other direction.
	cur2 := sampleReport()
	cur2.Runs[0].Metrics["spec.success_pct"] = 50 // -44%: worse
	c2 := Compare(base, cur2, 15)
	if len(c2.Regressions) != 1 || c2.Regressions[0].Metric != "spec.success_pct" {
		t.Fatalf("success-rate drop not gated: %+v", c2)
	}
	// And rising success is an improvement, not a regression.
	cur3 := sampleReport()
	cur3.Runs[0].Metrics["spec.success_pct"] = 99
	if c3 := Compare(base, cur3, 5); !c3.Ok() {
		t.Fatalf("success-rate rise flagged as regression: %+v", c3.Regressions)
	}
}

// TestCompareZeroBaseline: a gated metric appearing from zero is an
// infinite-percent regression (deterministic metrics have no noise floor).
func TestCompareZeroBaseline(t *testing.T) {
	base := sampleReport()
	base.Runs[0].Metrics["spec.reverts"] = 0
	cur := sampleReport()
	cur.Runs[0].Metrics["spec.reverts"] = 1
	c := Compare(base, cur, 25)
	if c.Ok() {
		t.Fatal("0 -> 1 on a gated metric passed")
	}
	if !math.IsInf(c.Regressions[0].Pct, 1) {
		t.Fatalf("pct = %v, want +Inf", c.Regressions[0].Pct)
	}
}

// TestCompareMissingAndNewRuns: losing a baseline run fails the gate; a new
// run is informational.
func TestCompareMissingAndNewRuns(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Runs = cur.Runs[:1]
	cur.Runs = append(cur.Runs, RunReport{Workload: "ll", Engine: "LazyDet", Threads: 2,
		Metrics: map[string]float64{"dlc.total": 5}})
	c := Compare(base, cur, 15)
	if c.Ok() {
		t.Fatal("missing baseline run passed the gate")
	}
	if len(c.MissingRuns) != 1 || c.MissingRuns[0] != "ht/Consequence/t4" {
		t.Fatalf("missing = %v", c.MissingRuns)
	}
	if len(c.NewRuns) != 1 || c.NewRuns[0] != "ll/LazyDet/t2" {
		t.Fatalf("new = %v", c.NewRuns)
	}
}

// TestCompareTimingNeverGates: even a huge wall-time increase is a note,
// not a regression.
func TestCompareTimingNeverGates(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Runs[0].Timing["wall_ns"] = 1e7 // 10x slower
	c := Compare(base, cur, 15)
	if !c.Ok() {
		t.Fatalf("timing movement failed the gate: %+v", c.Regressions)
	}
	if len(c.TimingNotes) != 1 || c.TimingNotes[0].Metric != "wall_ns" {
		t.Fatalf("timing notes = %+v", c.TimingNotes)
	}
	// Small timing jitter is suppressed entirely.
	cur.Runs[0].Timing["wall_ns"] = 1.05e6
	if c := Compare(base, cur, 15); len(c.TimingNotes) != 0 {
		t.Fatalf("5%% timing jitter reported: %+v", c.TimingNotes)
	}
}

// TestGateDisabled: gatePct <= 0 reports changes but never fails.
func TestGateDisabled(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Runs[0].Metrics["vheap.words_scanned"] = 5000
	c := Compare(base, cur, 0)
	if !c.Ok() || len(c.Changes) != 1 {
		t.Fatalf("disabled gate: %+v", c)
	}
}

func TestGatedMetric(t *testing.T) {
	if g, hw := GatedMetric("dlc.total"); !g || !hw {
		t.Fatal("dlc.total should be gated higher-is-worse")
	}
	if g, hw := GatedMetric("spec.success_pct"); !g || hw {
		t.Fatal("spec.success_pct should be gated lower-is-worse")
	}
	if g, _ := GatedMetric("nope"); g {
		t.Fatal("unknown metric gated")
	}
	// The open-loop simulation's latency metrics are cost-like: higher is
	// worse, and they participate in the gate.
	for _, m := range []string{"sim.latency_p50", "sim.latency_p95", "sim.latency_p99",
		"sim.wait_p95", "sim.qdepth_max", "sim.makespan_dlc"} {
		if g, hw := GatedMetric(m); !g || !hw {
			t.Fatalf("%s should be gated higher-is-worse", m)
		}
	}
}

// FilterPrefix keeps only the matching workload slice — the sim-smoke job
// gates a grid run against the sim/* rows of the full baseline without
// reporting the microbenchmark rows as missing.
func TestFilterPrefix(t *testing.T) {
	s := sampleReport()
	s.Runs = append(s.Runs, RunReport{Workload: "sim/c4/g48/w3/r0", Engine: "LazyDet", Threads: 4,
		Metrics: map[string]float64{"sim.latency_p99": 500}})
	sim := s.FilterPrefix("sim/")
	if len(sim.Runs) != 1 || sim.Runs[0].Workload != "sim/c4/g48/w3/r0" {
		t.Fatalf("FilterPrefix kept %v", sim.Runs)
	}
	if sim.Schema != s.Schema || sim.Suite != s.Suite {
		t.Fatal("FilterPrefix dropped header fields")
	}
	if got := s.FilterPrefix("zzz/"); len(got.Runs) != 0 {
		t.Fatalf("non-matching prefix kept %d runs", len(got.Runs))
	}
	c := Compare(sim, sim, 25)
	if !c.Ok() || len(c.MissingRuns) != 0 {
		t.Fatal("self-compare of the filtered slice should pass")
	}
}

// DropPrefix is FilterPrefix's complement: the sim gate strips the report
// suite's sim/hints-* policy-pin rows (which no grid run produces) from the
// baseline so they are not reported as missing.
func TestDropPrefix(t *testing.T) {
	s := sampleReport()
	s.Runs = append(s.Runs,
		RunReport{Workload: "sim/c4/g48/w3/r0", Engine: "LazyDet", Threads: 4,
			Metrics: map[string]float64{"sim.latency_p99": 500}},
		RunReport{Workload: "sim/hints-on", Engine: "LazyDet", Threads: 3,
			Metrics: map[string]float64{"spec.commits": 7}})
	sim := s.FilterPrefix("sim/").DropPrefix("sim/hints-")
	if len(sim.Runs) != 1 || sim.Runs[0].Workload != "sim/c4/g48/w3/r0" {
		t.Fatalf("FilterPrefix+DropPrefix kept %v", sim.Runs)
	}
	if sim.Schema != s.Schema || sim.Suite != s.Suite {
		t.Fatal("DropPrefix dropped header fields")
	}
	if got := s.DropPrefix(""); len(got.Runs) != 0 {
		t.Fatalf("empty prefix matches everything, kept %d runs", len(got.Runs))
	}
}

// TestCompareNamesAndHistograms: the gate sees every name on either side
// and every histogram field. A gated metric the current report dropped is
// a regression; other dropped or added names and histogram differences are
// changes, so a report that lost a metric never prints "no deterministic
// metric changed".
func TestCompareNamesAndHistograms(t *testing.T) {
	cases := []struct {
		name        string
		edit        func(r *RunReport)
		gate        float64
		regressions []string // Metric of each regression, in order
		changes     []string // Metric of each change, in order
		presence    string   // Presence of the single regression or change
	}{
		{name: "gated metric dropped",
			edit: func(r *RunReport) { delete(r.Metrics, "dlc.total") },
			gate: 25, regressions: []string{"dlc.total"}, presence: Dropped},
		{name: "gated metric dropped, gate off",
			edit: func(r *RunReport) { delete(r.Metrics, "dlc.total") },
			gate: 0, changes: []string{"dlc.total"}, presence: Dropped},
		{name: "ungated metric dropped",
			edit: func(r *RunReport) { delete(r.Metrics, "ungated.metric") },
			gate: 25, changes: []string{"ungated.metric"}, presence: Dropped},
		{name: "gated metric added",
			edit: func(r *RunReport) { r.Metrics["vheap.commits"] = 9 },
			gate: 25, changes: []string{"vheap.commits"}, presence: Added},
		{name: "histogram dropped",
			edit: func(r *RunReport) { r.Histograms = nil },
			gate: 25, changes: []string{"vheap.commit_words"}, presence: Dropped},
		{name: "histogram added",
			edit: func(r *RunReport) {
				r.Histograms["spec.revert_words"] = HistSnapshot{N: 1, Sum: 2, Buckets: map[string]int64{"2": 1}}
			},
			gate: 25, changes: []string{"spec.revert_words"}, presence: Added},
		{name: "histogram n, sum and buckets moved",
			edit: func(r *RunReport) {
				r.Histograms["vheap.commit_words"] = HistSnapshot{N: 4, Sum: 13, Buckets: map[string]int64{"1": 1, "4": 3}}
			},
			gate: 25, changes: []string{"vheap.commit_words[n]", "vheap.commit_words[sum]", "vheap.commit_words[bucket 1]"}},
		{name: "histogram bucket moved alone",
			edit: func(r *RunReport) {
				r.Histograms["vheap.commit_words"] = HistSnapshot{N: 3, Sum: 12, Buckets: map[string]int64{"2": 1, "4": 2}}
			},
			gate: 25, changes: []string{"vheap.commit_words[bucket 2]", "vheap.commit_words[bucket 4]"}},
		{name: "unchanged",
			edit: func(r *RunReport) {},
			gate: 25},
	}
	metrics := func(ds []Delta) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Metric)
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, cur := sampleReport(), sampleReport()
			tc.edit(&cur.Runs[0])
			c := Compare(base, cur, tc.gate)
			if got := metrics(c.Regressions); strings.Join(got, ",") != strings.Join(tc.regressions, ",") {
				t.Fatalf("regressions = %v, want %v", got, tc.regressions)
			}
			if got := metrics(c.Changes); strings.Join(got, ",") != strings.Join(tc.changes, ",") {
				t.Fatalf("changes = %v, want %v", got, tc.changes)
			}
			if c.Ok() != (len(tc.regressions) == 0) {
				t.Fatalf("Ok() = %v with regressions %v", c.Ok(), c.Regressions)
			}
			if tc.presence != "" {
				all := append(c.Regressions, c.Changes...)
				if len(all) != 1 || all[0].Presence != tc.presence {
					t.Fatalf("presence = %+v, want one delta %q", all, tc.presence)
				}
				if !strings.Contains(all[0].String(), "("+tc.presence+")") {
					t.Fatalf("delta string %q does not say %q", all[0], tc.presence)
				}
			}
			var buf bytes.Buffer
			c.Format(&buf)
			quiet := strings.Contains(buf.String(), "no deterministic metric changed")
			if quiet != (len(tc.regressions)+len(tc.changes) == 0) {
				t.Fatalf("format output %q for regressions %v, changes %v", buf.String(), tc.regressions, tc.changes)
			}
		})
	}
}
