package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
)

// testSizes keeps every run to a few milliseconds. Tests of the traced run
// use the benchmark's own sizes instead: goroutine start-up, which no span
// covers, must stay a small share of a thread span, as it does there.
var testSizes = sizes{htOpsPerThread: 400, oceanScale: 1, simRequests: 200}

// The tracer must offer the optional hook dvm.Run type-asserts.
var _ interface{ ThreadResume(*dvm.Thread) } = (*tracer)(nil)

func setupOrFail(t *testing.T, name string, seed uint64, sz sizes) *bench {
	t.Helper()
	b, err := setup(name, seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	if b.prepare != nil {
		b.prepare()
	}
	return b
}

// checkTraced runs eng traced on w and, for deterministic engines, checks
// the run against ref: same heap, same sync order, same gated counters,
// and spans that account for every thread's time.
func checkTraced(t *testing.T, w *harness.Workload, eng harness.EngineKind, wantCoverage float64, ref func(harness.EngineKind) (*harness.Result, error)) *tracedRun {
	t.Helper()
	tr, err := runTraced(w, eng, threads)
	if err != nil {
		t.Fatalf("%s traced: %v", eng, err)
	}
	if lt := splitTimes(tr.tr); lt.minCoverage < wantCoverage || lt.maxCoverage > 1 {
		t.Errorf("%s: hooks plus dvm self time cover %.4f..%.4f of a thread span", eng, lt.minCoverage, lt.maxCoverage)
	}
	if !eng.Deterministic() {
		return tr
	}
	want, err := ref(eng)
	if err != nil {
		t.Fatalf("%s reference: %v", eng, err)
	}
	for _, d := range checkFidelity(tr, want) {
		t.Errorf("%s: traced run differs from the untraced run: %s", eng, d)
	}
	return tr
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b := setupOrFail(t, name, 7, defaultSizes)
			for _, eng := range b.engines {
				checkTraced(t, b.w, eng, minCoverage, b.ref)
			}
		})
	}
}

// TestTracerForwardsThreadResume runs a program whose second thread starts
// suspended and reads what the first wrote before spawning it: the engine
// refreshes the spawned thread's view in ThreadResume, so a wrapper that
// dropped the hook would change the heap.
func TestTracerForwardsThreadResume(t *testing.T) {
	parent := dvm.NewBuilder("parent")
	parent.Store(dvm.Const(0), dvm.Const(41))
	parent.Spawn(dvm.Const(1))
	parent.Join(dvm.Const(1))
	child := dvm.NewBuilder("child")
	v := child.Reg()
	child.Load(v, dvm.Const(0))
	child.Store(dvm.Const(1), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
	progs := []*dvm.Program{parent.Build(), child.Build()}
	progs[1].StartSuspended = true
	w := &harness.Workload{
		Name: "spawn", HeapWords: 2,
		Programs: func(int) []*dvm.Program { return progs },
		Validate: func(read func(int64) int64, _ int) error {
			if got := read(1); got != 42 {
				t.Errorf("child stored %d, want 42", got)
			}
			return nil
		},
	}
	// The program runs for microseconds, so goroutine start-up dominates
	// its thread spans; only overlapping spans are checked.
	for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
		tr := checkTraced(t, w, eng, 0, publicRef(w))
		if n := len(splitTimes(tr.tr).durs[hResume]); n != 1 {
			t.Errorf("%s: %d resume spans, want 1", eng, n)
		}
	}
}

func TestCoverageFlagsBrokenSpans(t *testing.T) {
	tr := newTracer(nil, 2)
	// Thread 0: a late first hook leaves most of its span uncovered.
	tr.thr[0].spans = []span{{start: 900, end: 950, hook: hStart}, {start: 960, end: 1000, hook: hExit}}
	// Thread 1: a span recorded twice covers more than the thread span.
	tr.thr[1].spans = []span{{start: 0, end: 600, hook: hLock}, {start: 0, end: 600, hook: hLock}, {start: 600, end: 1000, hook: hExit}}
	lt := splitTimes(tr)
	if lt.minCoverage >= minCoverage {
		t.Errorf("min coverage %.3f, want below %.2f", lt.minCoverage, minCoverage)
	}
	if lt.maxCoverage <= 1 {
		t.Errorf("max coverage %.3f, want above 1", lt.maxCoverage)
	}
}

// heapHash runs b once under Consequence and returns its heap hash.
func heapHash(t *testing.T, b *bench) uint64 {
	t.Helper()
	res, err := b.run(harness.Consequence)
	if err != nil {
		t.Fatal(err)
	}
	return res.HeapHash
}

func TestSeedReachesInputs(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, again, other := heapHash(t, setupOrFail(t, name, 1, testSizes)), heapHash(t, setupOrFail(t, name, 1, testSizes)), heapHash(t, setupOrFail(t, name, 2, testSizes))
			if a != again {
				t.Errorf("seed 1 gave heap hashes %016x and %016x", a, again)
			}
			if a == other {
				t.Errorf("seeds 1 and 2 gave the same heap hash %016x", a)
			}
		})
	}
}

func TestOceanCheckRejectsWrongGrid(t *testing.T) {
	b := setupOrFail(t, "ocean-barrier", 3, testSizes)
	// The initial grid is not the solved one.
	var initial []int64
	b.w.Init(func(addr, val int64) {
		for int64(len(initial)) <= addr {
			initial = append(initial, 0)
		}
		initial[addr] = val
	}, threads)
	read := func(a int64) int64 {
		if a < int64(len(initial)) {
			return initial[a]
		}
		return 0
	}
	if err := b.w.Validate(read, threads); err == nil {
		t.Error("Validate accepted the unsolved initial grid")
	}
	// Every engine's final grid matches the host-side Jacobi solve.
	for _, eng := range b.engines {
		if _, err := b.run(eng); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// names lists the metrics' names, failing the test on a value JSON cannot
// carry.
func names(t *testing.T, ms map[string]metric) []string {
	t.Helper()
	var out []string
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %g", k, m.Value)
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalSets(t *testing.T, what string, got []string, want []struct{ Name string }) {
	t.Helper()
	var w []string
	for _, x := range want {
		w = append(w, x.Name)
	}
	sort.Strings(w)
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	for _, n := range w {
		if !gotSet[n] {
			t.Errorf("%s: BENCHMARK.json names %s, the run does not report it", what, n)
		}
		delete(gotSet, n)
	}
	for n := range gotSet {
		t.Errorf("%s: the run reports %s, BENCHMARK.json does not name it", what, n)
	}
}

// TestReportMatchesBenchmarkFile checks that every workload reports
// exactly the metrics BENCHMARK.json names, and that the prediction table
// covers every per-layer metric and workload.
func TestReportMatchesBenchmarkFile(t *testing.T) {
	var bf benchmarkFile
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	if len(wl) != len(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloadNames)
	}
	var pred predictionTable
	raw, err = os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &pred); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.PerLayer {
		p, ok := pred.PerLayer[m.Name]
		if !ok {
			t.Errorf("predictions.json has no entry for %s", m.Name)
			continue
		}
		if (len(p.Moves) == 0 && p.Note == "") || p.NoChangeOn == "" {
			t.Errorf("predictions.json entry for %s lacks a prediction or a no-change workload", m.Name)
		}
	}
	for _, w := range workloadNames {
		if pred.Workloads[w] == "" {
			t.Errorf("predictions.json does not say why %s was chosen", w)
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r, err := runBenchmark(name, 5, 0, true, t.TempDir(), defaultSizes)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.failures) > 0 {
				t.Fatalf("failures: %v", r.failures)
			}
			equalSets(t, "end-to-end", names(t, r.e2e), bf.EndToEnd)
			equalSets(t, "per-layer", names(t, r.layer), bf.PerLayer)
			for k, m := range r.e2e {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %g, want > 0", k, m.Value)
				}
			}
		})
	}
}

// predictionTable is predictions.json.
type predictionTable struct {
	Workloads map[string]string `json:"workloads"`
	PerLayer  map[string]struct {
		Moves []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"moves"`
		NoChangeOn string `json:"no_change_on"`
		Note       string `json:"note"`
	} `json:"per_layer"`
}
