// Command perfbench is the repository's benchmark. It runs one workload by
// name through the public entry points (lazydet.Run and opensim.Run) under
// the benchmarked engines, repeats for a fixed time, checks every output,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run.
//
//	go run . -workload ht-hoh -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"lazydet/internal/harness"
	"lazydet/internal/stats"
)

// minRounds is the least number of timed rounds, however short -seconds.
const minRounds = 3

// setupBatch is how many set-ups one setup_s sample times; firstSetups is
// how many samples are taken before the repetitions start. One more is
// taken after every round.
const (
	setupBatch  = 8
	firstSetups = 5
)

func main() {
	workload := flag.String("workload", "", "workload name: ht-hoh, ocean-barrier or service-open")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "how long the timed repetitions run")
	traced := flag.Int("trace", 0, "1 adds a traced run per engine and prints per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	r, err := runBenchmark(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out, defaultSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	r.printReport(os.Stdout)
	line, err := json.Marshal(r.summary(*traced == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one timed repetition.
type sample struct {
	// dur is the whole public Run call; wall is the Result.Wall it
	// reported (program execution only).
	dur, wall time.Duration
	cpuNs     int64
	// allocB is the Go heap bytes allocated during the call (LazyDet).
	allocB uint64
}

// runner carries one benchmark invocation's state.
type runner struct {
	b       *bench
	setupNs []int64
	samples map[harness.EngineKind][]sample
	// hashes is the first heap hash of each deterministic engine; every
	// later run of the same inputs must reproduce it.
	hashes    map[harness.EngineKind]uint64
	attempted int
	failures  []string
	// e2e holds the end-to-end metrics, layer the per-layer ones (traced
	// invocations only), info the workload-specific metrics that are
	// printed but not part of the JSON result (see README.md).
	e2e, layer, info map[string]metric
}

func runBenchmark(name string, seed uint64, d time.Duration, traced bool, out string, sz sizes) (*runner, error) {
	r := &runner{
		samples: map[harness.EngineKind][]sample{},
		hashes:  map[harness.EngineKind]uint64{},
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
		info:    map[string]metric{},
	}
	for i := 0; i < firstSetups; i++ {
		b, err := r.setup(name, seed, sz)
		if err != nil {
			return nil, err
		}
		r.b = b
	}
	if r.b.prepare != nil {
		r.b.prepare()
	}

	// One warm-up run per engine lets lazy set-up finish and records the
	// reference heap hashes; its timing is discarded.
	for _, eng := range r.b.engines {
		r.timedRun(eng)
	}
	r.samples = map[harness.EngineKind][]sample{}
	deadline := time.Now().Add(d)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		// Rotate the engine order so drift in the machine's speed is
		// shared out evenly.
		for i := range r.b.engines {
			r.timedRun(r.b.engines[(i+round)%len(r.b.engines)])
		}
		// Set-up is repeated between rounds, so its samples spread over
		// the whole run like the repetitions' do.
		if _, err := r.setup(name, seed, sz); err != nil {
			return nil, err
		}
	}
	r.endToEnd()
	if traced {
		if err := r.tracedRuns(out); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// setup builds the workload's inputs setupBatch times in a row and records
// the mean time of one set-up. Collection is paused for the batch: a
// collection that happens to start inside it would cost far more than the
// set-up it interrupts, and whose garbage it collects is not set-up's
// business.
func (r *runner) setup(name string, seed uint64, sz sizes) (*bench, error) {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	start := time.Now()
	var b *bench
	for i := 0; i < setupBatch; i++ {
		var err error
		if b, err = setup(name, seed, sz); err != nil {
			return nil, err
		}
	}
	r.setupNs = append(r.setupNs, time.Since(start).Nanoseconds()/setupBatch)
	return b, nil
}

// fail records a failed repetition.
func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// checkHash compares a deterministic engine's heap hash with the first one
// it produced on these inputs.
func (r *runner) checkHash(eng harness.EngineKind, h uint64, what string) bool {
	if !eng.Deterministic() {
		return true
	}
	want, seen := r.hashes[eng]
	if !seen {
		r.hashes[eng] = h
		return true
	}
	if h != want {
		r.fail("%s %s %s: heap hash %016x, earlier runs %016x", r.b.name, eng, what, h, want)
		return false
	}
	return true
}

// timedRun runs one repetition through the public entry point, times the
// whole call, and checks its output.
func (r *runner) timedRun(eng harness.EngineKind) {
	r.attempted++
	runtime.GC() // start every repetition from a collected heap
	var alloc0 uint64
	if eng == harness.LazyDet {
		alloc0 = memStatsBytes()
	}
	cpu0 := stats.ProcessCPUNs()
	start := time.Now()
	res, err := r.b.run(eng)
	dur := time.Since(start)
	cpu := stats.ProcessCPUNs() - cpu0
	var allocB uint64
	if eng == harness.LazyDet {
		allocB = memStatsBytes() - alloc0
	}
	if err != nil {
		r.fail("%s %s: %v", r.b.name, eng, err)
		return
	}
	if !r.checkHash(eng, res.HeapHash, "run") {
		return
	}
	r.samples[eng] = append(r.samples[eng], sample{dur: dur, wall: res.Wall, cpuNs: cpu, allocB: allocB})
}

// engineKey is an engine's name in metric names.
func engineKey(eng harness.EngineKind) string {
	switch eng {
	case harness.LazyDet:
		return "lazydet"
	case harness.Consequence:
		return "consequence"
	case harness.Pthreads:
		return "pthreads"
	}
	return eng.String()
}

// median returns the median of vs (the mean of the middle two for an even
// count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perSample maps f over an engine's samples.
func (r *runner) perSample(eng harness.EngineKind, f func(sample) float64) []float64 {
	var vs []float64
	for _, s := range r.samples[eng] {
		vs = append(vs, f(s))
	}
	return vs
}

// opsPerS is an engine's median throughput over its timed repetitions.
func (r *runner) opsPerS(eng harness.EngineKind) float64 {
	ops := float64(r.b.ops)
	return median(r.perSample(eng, func(s sample) float64 { return ops / s.dur.Seconds() }))
}

// endToEnd computes the end-to-end metrics from the timed repetitions.
func (r *runner) endToEnd() {
	var setup []float64
	for _, ns := range r.setupNs {
		setup = append(setup, float64(ns)/1e9)
	}
	r.e2e["setup_s"] = metric{median(setup), "s"}
	ops := float64(r.b.ops)
	for _, eng := range r.b.engines {
		if len(r.samples[eng]) == 0 {
			continue // every repetition failed; the failures say why
		}
		m := r.e2e
		if eng == harness.Pthreads {
			m = r.info // not every workload runs under pthreads
		}
		m[engineKey(eng)+".ops_per_s"] = metric{r.opsPerS(eng), "1/s"}
	}
	if len(r.samples[harness.LazyDet]) > 0 {
		r.e2e["lazydet.cpu_us_per_op"] = metric{median(r.perSample(harness.LazyDet, func(s sample) float64 {
			return float64(s.cpuNs) / 1e3 / ops
		})), "us"}
		r.e2e["lazydet.alloc_bytes_per_op"] = metric{median(r.perSample(harness.LazyDet, func(s sample) float64 {
			return float64(s.allocB) / ops
		})), "B"}
	}
	if len(r.samples[harness.Pthreads]) > 0 {
		base := r.opsPerS(harness.Pthreads)
		for _, eng := range []harness.EngineKind{harness.LazyDet, harness.Consequence} {
			if len(r.samples[eng]) > 0 {
				r.info["core.slowdown_x."+engineKey(eng)] = metric{base / r.opsPerS(eng), "x"}
			}
		}
	}
	for eng, res := range r.b.sim {
		k := "sim." + engineKey(eng) + "."
		r.info[k+"latency_dlc.p50"] = metric{float64(res.LatP50), "dlc"}
		r.info[k+"latency_dlc.p99"] = metric{float64(res.LatP99), "dlc"}
		r.info[k+"wait_dlc.p95"] = metric{float64(res.WaitP95), "dlc"}
		r.info[k+"qdepth_mean"] = metric{res.QDepthMean, "count"}
		r.info[k+"makespan_dlc"] = metric{float64(res.MakespanDLC), "dlc"}
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runner) summary(traced bool) result {
	m := r.e2e
	if traced {
		m = r.layer
	}
	return result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: len(r.failures), Metrics: m}
}

// printReport prints every metric, one per line, before the JSON result.
func (r *runner) printReport(w io.Writer) {
	fmt.Fprintf(w, "# %s: %d ops (%s) per run, %d threads, %d set-up samples of %d\n",
		r.b.name, r.b.ops, r.b.opUnit, threads, len(r.setupNs), setupBatch)
	for _, eng := range r.b.engines {
		ms := r.perSample(eng, func(s sample) float64 { return float64(s.dur) / 1e6 })
		sort.Float64s(ms)
		if len(ms) == 0 {
			fmt.Fprintf(w, "# %s: no successful repetitions\n", engineKey(eng))
			continue
		}
		fmt.Fprintf(w, "# %s: %d timed repetitions, run ms min %.2f q1 %.2f median %.2f q3 %.2f max %.2f\n",
			engineKey(eng), len(ms), ms[0], ms[len(ms)/4], median(ms), ms[3*len(ms)/4], ms[len(ms)-1])
	}
	for _, sec := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end", r.e2e}, {"workload-specific", r.info}, {"per-layer", r.layer}} {
		names := make([]string, 0, len(sec.m))
		for k := range sec.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "# %-18s %-44s %16.6g %s\n", sec.title, k, sec.m[k].Value, sec.m[k].Unit)
		}
	}
	fmt.Fprintf(w, "# attempted %d repetitions, failed %d (failed_ratio %g)\n",
		r.attempted, len(r.failures), float64(len(r.failures))/float64(r.attempted))
}
