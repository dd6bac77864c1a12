// Run reports: the structured JSON account of one or more runs that
// lazydet-bench and lazydet-run emit (-report), and the comparison logic
// behind the CI perf gate (-baseline/-gate).
//
// A report separates metrics by reproducibility class:
//
//   - Metrics are deterministic: counts and ratios in DLC/commit space that
//     two runs of a deterministic engine on the same spec must reproduce
//     exactly. Only these are gated — a regression in them is a behavioral
//     change, never machine noise — which is what lets a checked-in
//     baseline gate CI runs on different hardware.
//   - Timing is machine-dependent: wall/CPU time, utilization, blocked
//     time, revert-cost nanosecond percentiles. Compared for information
//     only, never gated.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// ReportSchema versions the report file format.
const ReportSchema = 1

// RunReport is the account of one (workload, engine, threads) run.
type RunReport struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Threads  int    `json:"threads"`
	// HeapHash fingerprints the final shared memory (hex). Deterministic
	// for deterministic engines; informational.
	HeapHash string `json:"heap_hash,omitempty"`
	// TraceSig fingerprints the synchronization order (hex).
	TraceSig string `json:"trace_sig,omitempty"`
	// Metrics are the deterministic, gateable measurements.
	Metrics map[string]float64 `json:"metrics"`
	// Timing is machine-dependent and never gated.
	Timing map[string]float64 `json:"timing,omitempty"`
	// Histograms are deterministic fixed-layout distributions.
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Key identifies the run for baseline matching.
func (r *RunReport) Key() string {
	return fmt.Sprintf("%s/%s/t%d", r.Workload, r.Engine, r.Threads)
}

// SuiteReport is a set of runs written as one report file.
type SuiteReport struct {
	Schema int         `json:"schema"`
	Suite  string      `json:"suite"`
	Runs   []RunReport `json:"runs"`
}

// Encode writes the report as deterministic, indented JSON: struct fields in
// declaration order, map keys sorted (encoding/json's map behavior), runs in
// the order recorded.
func (s *SuiteReport) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the report to path.
func (s *SuiteReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FilterPrefix returns a copy of the suite containing only runs whose
// workload name starts with prefix. The sim-smoke CI job uses it to gate a
// grid run against the sim/* slice of the full baseline without tripping
// MissingRuns on the microbenchmark rows the grid never executes.
func (s *SuiteReport) FilterPrefix(prefix string) *SuiteReport {
	out := &SuiteReport{Schema: s.Schema, Suite: s.Suite}
	for _, r := range s.Runs {
		if len(r.Workload) >= len(prefix) && r.Workload[:len(prefix)] == prefix {
			out.Runs = append(out.Runs, r)
		}
	}
	return out
}

// DropPrefix returns a copy of the suite without the runs whose workload
// name starts with prefix — the complement of FilterPrefix. The sim-smoke
// gate uses it to strip the report suite's sim/hints-* policy-pin rows,
// which no grid run produces, from the baseline before MissingRuns checks.
func (s *SuiteReport) DropPrefix(prefix string) *SuiteReport {
	out := &SuiteReport{Schema: s.Schema, Suite: s.Suite}
	for _, r := range s.Runs {
		if len(r.Workload) < len(prefix) || r.Workload[:len(prefix)] != prefix {
			out.Runs = append(out.Runs, r)
		}
	}
	return out
}

// ReadReport loads a report file.
func ReadReport(path string) (*SuiteReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s SuiteReport
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("telemetry: parsing report %s: %w", path, err)
	}
	if s.Schema != ReportSchema {
		return nil, fmt.Errorf("telemetry: report %s has schema %d, want %d", path, s.Schema, ReportSchema)
	}
	return &s, nil
}

// gatedMetrics lists the deterministic metrics the perf gate enforces, with
// their regression direction: true means higher values are worse (cost-like
// counters), false means lower values are worse (success rates). Metrics
// not listed here are compared but never fail the gate.
var gatedMetrics = map[string]bool{
	"dlc.total":             true,
	"turn.waits":            true,
	"turn.retries":          true,
	"sync.events":           true,
	"vheap.commits":         true,
	"vheap.pages_committed": true,
	"vheap.words_committed": true,
	"vheap.words_scanned":   true,
	"mempipe.publishes":     true,
	// Consecutive same-thread grants are a pure function of the grant
	// sequence. They are savings-like, so lower values are worse.
	"dlc.chain_hits":      false,
	"spec.reverts":        true,
	"spec.reverted_words": true,
	"spec.success_pct":    false,
	// Open-loop simulation latency metrics (internal/opensim): DLC-stamped
	// percentiles and queue statistics are functions of the deterministic
	// schedule alone, so a movement is a behavioral change in arbitration
	// or commit cost, never machine noise.
	"sim.latency_p50":  true,
	"sim.latency_p95":  true,
	"sim.latency_p99":  true,
	"sim.wait_p95":     true,
	"sim.qdepth_max":   true,
	"sim.makespan_dlc": true,
}

// GatedMetric reports whether the named metric participates in the gate,
// and whether higher values count as a regression.
func GatedMetric(name string) (gated, higherWorse bool) {
	hw, ok := gatedMetrics[name]
	return ok, hw
}

// Delta is one metric's change between baseline and current.
type Delta struct {
	Run    string // run key
	Metric string
	Old    float64
	New    float64
	Pct    float64 // percent change relative to Old (Inf when Old == 0)
	// Presence is Dropped or Added when the metric exists in only one of
	// the two reports (Old or New is then zero and Pct unset), empty when
	// it exists in both.
	Presence string
}

// Delta.Presence values.
const (
	Dropped = "dropped" // in the baseline, missing from the current report
	Added   = "added"   // in the current report, missing from the baseline
)

func (d Delta) String() string {
	switch d.Presence {
	case Dropped:
		return fmt.Sprintf("%-28s %-24s %14.6g -> (dropped)", d.Run, d.Metric, d.Old)
	case Added:
		return fmt.Sprintf("%-28s %-24s %14s -> %-14.6g (added)", d.Run, d.Metric, "(absent)", d.New)
	}
	return fmt.Sprintf("%-28s %-24s %14.6g -> %-14.6g (%+.1f%%)", d.Run, d.Metric, d.Old, d.New, d.Pct)
}

// Comparison is the diff of two suite reports.
type Comparison struct {
	// Regressions are gated metrics past the gate threshold, or dropped
	// from the current report: the gate fails.
	Regressions []Delta
	// Changes are deterministic metrics that moved without tripping the
	// gate (including improvements and non-gated metrics), metrics added
	// or dropped without tripping it, and histogram differences.
	Changes []Delta
	// TimingNotes are machine-dependent metric movements, informational.
	TimingNotes []Delta
	// MissingRuns are baseline run keys absent from the current report —
	// lost coverage, reported as a regression of its own.
	MissingRuns []string
	// NewRuns are current run keys absent from the baseline.
	NewRuns []string
}

// Ok reports whether the gate passes.
func (c *Comparison) Ok() bool {
	return len(c.Regressions) == 0 && len(c.MissingRuns) == 0
}

// Format writes a human-readable account of the comparison.
func (c *Comparison) Format(w io.Writer) {
	if len(c.Regressions) > 0 {
		fmt.Fprintf(w, "REGRESSIONS (%d):\n", len(c.Regressions))
		for _, d := range c.Regressions {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	if len(c.MissingRuns) > 0 {
		fmt.Fprintf(w, "missing runs (in baseline, not in report): %v\n", c.MissingRuns)
	}
	if len(c.NewRuns) > 0 {
		fmt.Fprintf(w, "new runs (not in baseline): %v\n", c.NewRuns)
	}
	if len(c.Changes) > 0 {
		fmt.Fprintf(w, "metric changes within gate (%d):\n", len(c.Changes))
		for _, d := range c.Changes {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	if len(c.TimingNotes) > 0 {
		fmt.Fprintf(w, "timing (informational, not gated):\n")
		for _, d := range c.TimingNotes {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	if c.Ok() && len(c.Changes) == 0 {
		fmt.Fprintln(w, "no deterministic metric changed")
	}
}

// pctChange returns the relative change in percent. A zero baseline with a
// nonzero current value is +Inf — deterministic metrics have no noise floor,
// so appearing from zero is a real change.
func pctChange(old, nv float64) float64 {
	if old == nv {
		return 0
	}
	if old == 0 {
		return math.Inf(sign(nv))
	}
	return 100 * (nv - old) / math.Abs(old)
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// timingNoteFloorPct suppresses timing chatter below this relative change.
const timingNoteFloorPct = 10

// Compare diffs current against baseline. gatePct is the regression
// threshold in percent for gated metrics; a gatePct <= 0 disables failing
// (everything lands in Changes). Runs are matched by (workload, engine,
// threads); baseline runs missing from current are reported in MissingRuns.
func Compare(baseline, current *SuiteReport, gatePct float64) *Comparison {
	c := &Comparison{}
	cur := make(map[string]*RunReport, len(current.Runs))
	for i := range current.Runs {
		cur[current.Runs[i].Key()] = &current.Runs[i]
	}
	seen := make(map[string]bool, len(baseline.Runs))
	for i := range baseline.Runs {
		b := &baseline.Runs[i]
		seen[b.Key()] = true
		n, ok := cur[b.Key()]
		if !ok {
			c.MissingRuns = append(c.MissingRuns, b.Key())
			continue
		}
		compareRun(c, b, n, gatePct)
	}
	for _, r := range current.Runs {
		if !seen[r.Key()] {
			c.NewRuns = append(c.NewRuns, r.Key())
		}
	}
	sort.Strings(c.MissingRuns)
	sort.Strings(c.NewRuns)
	return c
}

// compareRun diffs one matched run pair into c. Every metric name of either
// report is compared: a gated metric the current report lost is a
// regression (lost coverage hides a behavioral change as surely as a lost
// run does); any other name present on one side only is a change.
func compareRun(c *Comparison, b, n *RunReport, gatePct float64) {
	for _, name := range unionKeys(b.Metrics, n.Metrics) {
		old, inOld := b.Metrics[name]
		nv, inNew := n.Metrics[name]
		d := Delta{Run: b.Key(), Metric: name, Old: old, New: nv}
		gated, higherWorse := GatedMetric(name)
		switch {
		case !inNew:
			d.Presence = Dropped
			if gated && gatePct > 0 {
				c.Regressions = append(c.Regressions, d)
			} else {
				c.Changes = append(c.Changes, d)
			}
			continue
		case !inOld:
			d.Presence = Added
			c.Changes = append(c.Changes, d)
			continue
		case old == nv:
			continue
		}
		d.Pct = pctChange(old, nv)
		worse := d.Pct > 0 == higherWorse // movement in the bad direction
		if gated && gatePct > 0 && worse && math.Abs(d.Pct) > gatePct {
			c.Regressions = append(c.Regressions, d)
		} else {
			c.Changes = append(c.Changes, d)
		}
	}
	compareHistograms(c, b, n)
	for _, name := range sortedKeys(b.Timing) {
		old := b.Timing[name]
		nv, ok := n.Timing[name]
		if !ok || old == nv {
			continue
		}
		d := Delta{Run: b.Key(), Metric: name, Old: old, New: nv, Pct: pctChange(old, nv)}
		if math.Abs(d.Pct) >= timingNoteFloorPct {
			c.TimingNotes = append(c.TimingNotes, d)
		}
	}
}

// compareHistograms lists every histogram difference of a matched run pair
// as a change: a histogram on one side only, or a differing sample count
// ("name[n]"), sum ("name[sum]") or bucket count ("name[bucket LOW]").
// Histograms are deterministic but not gated.
func compareHistograms(c *Comparison, b, n *RunReport) {
	for _, name := range unionKeys(b.Histograms, n.Histograms) {
		hb, inOld := b.Histograms[name]
		hn, inNew := n.Histograms[name]
		diff := func(field string, old, nv int64) {
			if old != nv {
				c.Changes = append(c.Changes, Delta{Run: b.Key(), Metric: name + "[" + field + "]",
					Old: float64(old), New: float64(nv), Pct: pctChange(float64(old), float64(nv))})
			}
		}
		switch {
		case !inNew:
			c.Changes = append(c.Changes, Delta{Run: b.Key(), Metric: name, Old: float64(hb.N), Presence: Dropped})
			continue
		case !inOld:
			c.Changes = append(c.Changes, Delta{Run: b.Key(), Metric: name, New: float64(hn.N), Presence: Added})
			continue
		}
		diff("n", hb.N, hn.N)
		diff("sum", hb.Sum, hn.Sum)
		for _, k := range unionKeys(hb.Buckets, hn.Buckets) {
			diff("bucket "+k, hb.Buckets[k], hn.Buckets[k])
		}
	}
}

// unionKeys returns the keys in either map, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
