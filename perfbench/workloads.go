package main

import (
	"fmt"
	"math"
	"math/rand"

	"lazydet"
	"lazydet/internal/dvm"
	"lazydet/internal/harness"
	"lazydet/internal/opensim"
	"lazydet/internal/workloads"
)

// threads is the VM thread count of every workload: the host has two
// vCPUs, and the benchmark never oversubscribes them.
const threads = 2

// sizes fixes the input size of each workload. The benchmark runs
// defaultSizes; tests run smaller ones.
type sizes struct {
	htOpsPerThread int
	oceanScale     int
	simRequests    int
}

var defaultSizes = sizes{htOpsPerThread: 20000, oceanScale: 20, simRequests: 4000}

// bench is one workload, set up from a seed: the inputs, the public entry
// point that runs them, and what the traced run needs to assemble the same
// program itself.
type bench struct {
	name string
	// ops is the number of ops one run performs; opUnit names one op.
	ops    int64
	opUnit string
	// engines are the engines the workload runs under, pthreads first
	// where it applies.
	engines []harness.EngineKind
	// run executes one repetition through the public entry point and
	// checks its output.
	run func(eng harness.EngineKind) (*harness.Result, error)
	// w is the workload the traced run assembles its engine for. Its
	// Validate hook is the workload's output check, except on
	// service-open, whose protocol checks live inside opensim.Run.
	w *harness.Workload
	// ref runs the untraced reference run the traced run must reproduce:
	// the public entry point with trace recording and telemetry on.
	ref func(eng harness.EngineKind) (*harness.Result, error)
	// prepare, if non-nil, computes the expected output after set-up
	// has been timed: checking is the benchmark's cost, not the
	// program's.
	prepare func()
	// sim is the last service-open result per engine, for the DLC
	// latency metrics; nil on the other workloads.
	sim map[harness.EngineKind]*opensim.Result
}

// workloadNames lists the workloads in BENCHMARK.json's order.
var workloadNames = []string{"ht-hoh", "ocean-barrier", "service-open"}

// setup builds the named workload's inputs from seed: the part of a run's
// cost that setup_s measures.
func setup(name string, seed uint64, sz sizes) (*bench, error) {
	switch name {
	case "ht-hoh":
		return setupHT(seed, sz.htOpsPerThread)
	case "ocean-barrier":
		return setupOcean(seed, sz.oceanScale)
	case "service-open":
		return setupService(seed, sz.simRequests)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// publicRun is the untraced repetition of the lazydet.Run workloads:
// default Options, the workload's Validate hook checking the output.
func publicRun(w *harness.Workload) func(harness.EngineKind) (*harness.Result, error) {
	return func(eng harness.EngineKind) (*harness.Result, error) {
		return lazydet.Run(w, lazydet.Options{Engine: eng, Threads: threads})
	}
}

// publicRef is the reference run of the lazydet.Run workloads: the options
// the traced run's engine assembly mirrors.
func publicRef(w *harness.Workload) func(harness.EngineKind) (*harness.Result, error) {
	return func(eng harness.EngineKind) (*harness.Result, error) {
		return lazydet.Run(w, lazydet.Options{
			Engine: eng, Threads: threads,
			Trace: true, Telemetry: true, MeasureTimes: true,
			CollectSpec: eng == harness.LazyDet,
		})
	}
}

// buildPrograms constructs and validates the workload's programs once, as
// part of set-up; harness.Run constructs them again on every run.
func buildPrograms(w *harness.Workload) error {
	progs := w.Programs(threads)
	if len(progs) != threads {
		return fmt.Errorf("%s built %d programs for %d threads", w.Name, len(progs), threads)
	}
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%s thread %d: %w", w.Name, i, err)
		}
	}
	return nil
}

// htHash mirrors the hash table's bucket function. The workload's Validate
// checks every occupied slot against the real one, so a drift between the
// two fails the run instead of going unnoticed.
func htHash(key, buckets int64) int64 { return (key * 2654435761) % buckets }

// setupHT builds the hand-over-hand hash table with a seeded prefill: a
// seeded half of the key space, inserted in seeded order. The operation
// stream is drawn from the VM's per-thread PRNG, which is seeded by thread
// id alone, so it does not vary with the seed.
func setupHT(seed uint64, opsPerThread int) (*bench, error) {
	cfg := workloads.DefaultHTConfig(workloads.HT)
	cfg.OpsPerThread = opsPerThread
	w := workloads.NewHashTable(cfg)
	buckets := int64(cfg.Buckets())
	chain := int64(2 * cfg.LoadFactor)
	if buckets*chain != w.HeapWords {
		return nil, fmt.Errorf("ht-hoh: table layout changed: %d buckets × %d slots != %d words", buckets, chain, w.HeapWords)
	}
	keys := rand.New(rand.NewSource(int64(seed))).Perm(cfg.MaxObjects)[:cfg.MaxObjects/2]
	slots := make([]int64, w.HeapWords)
	used := make([]int64, buckets)
	for _, k := range keys {
		b := htHash(int64(k), buckets)
		if used[b] < chain {
			slots[b*chain+used[b]] = int64(k) + 2 // slot encoding: key+2
			used[b]++
		}
	}
	w.Init = func(set func(addr, val int64), _ int) {
		for a, v := range slots {
			if v != 0 {
				set(int64(a), v)
			}
		}
	}
	if err := buildPrograms(w); err != nil {
		return nil, err
	}
	return &bench{
		name:    "ht-hoh",
		ops:     int64(threads * opsPerThread),
		opUnit:  "table operation",
		engines: []harness.EngineKind{harness.Pthreads, harness.LazyDet, harness.Consequence},
		run:     publicRun(w),
		w:       w,
		ref:     publicRef(w),
	}, nil
}

// The ocean_cp grid layout: an n×n grid at address 0, its n×n scratch copy,
// the error cell, then 14 setup cells.
const (
	oceanN       = 64
	oceanScratch = oceanN * oceanN
	oceanMisc    = 2*oceanN*oceanN + 1
	oceanWords   = oceanMisc + 14
)

// setupOcean builds the ocean_cp grid solver on a seeded initial grid. The
// workload has no output check of its own, so the benchmark installs one:
// the final grid must equal a host-side sequential Jacobi solve of the same
// grid, bit for bit. The solve is a pure function of the previous grid, so
// it does not depend on thread order; the error cell, a float sum in lock
// order, does, and is not checked.
func setupOcean(seed uint64, scale int) (*bench, error) {
	w := workloads.OceanCP(scale)
	if w.HeapWords != oceanWords {
		return nil, fmt.Errorf("ocean-barrier: grid layout changed: %d words, want %d", w.HeapWords, oceanWords)
	}
	r := rand.New(rand.NewSource(int64(seed)))
	grid := make([]float64, oceanN*oceanN)
	for i := range grid {
		grid[i] = float64(r.Intn(1 << 12))
	}
	w.Init = func(set func(addr, val int64), _ int) {
		for i, v := range grid {
			set(int64(i), int64(math.Float64bits(v)))
		}
	}
	if err := buildPrograms(w); err != nil {
		return nil, err
	}
	iters := 6 * scale // OceanCP's iteration count
	var want []float64
	w.Validate = func(read func(int64) int64, threads int) error {
		if want == nil {
			return fmt.Errorf("ocean-barrier: reference grid not computed")
		}
		for i, v := range want {
			if got := read(int64(i)); got != int64(math.Float64bits(v)) {
				return fmt.Errorf("ocean-barrier: grid cell (%d,%d) = %g, sequential Jacobi gives %g",
					i/oceanN, i%oceanN, math.Float64frombits(uint64(got)), v)
			}
			// The last sweep's scratch copy holds the same interior.
			r, c := i/oceanN, i%oceanN
			interior := r > 0 && r < oceanN-1 && c > 0 && c < oceanN-1
			if got := read(oceanScratch + int64(i)); interior && got != int64(math.Float64bits(v)) {
				return fmt.Errorf("ocean-barrier: scratch cell (%d,%d) = %g, sequential Jacobi gives %g",
					r, c, math.Float64frombits(uint64(got)), v)
			}
		}
		var misc int64
		for i := int64(0); i < 14; i++ {
			misc += read(oceanMisc + i)
		}
		if misc != int64(threads) {
			return fmt.Errorf("ocean-barrier: setup cells sum to %d, want one per thread (%d)", misc, threads)
		}
		return nil
	}
	return &bench{
		name:    "ocean-barrier",
		ops:     int64((oceanN - 2) * (oceanN - 2) * iters),
		opUnit:  "grid-cell update",
		engines: []harness.EngineKind{harness.Pthreads, harness.LazyDet, harness.Consequence},
		run:     publicRun(w),
		w:       w,
		ref:     publicRef(w),
		prepare: func() { want = jacobi(grid, iters) },
	}, nil
}

// jacobi runs iters sweeps of the 4-point stencil over the interior of an
// n×n grid, in the VM program's operand order, and returns the final grid.
func jacobi(grid []float64, iters int) []float64 {
	g := append([]float64(nil), grid...)
	next := append([]float64(nil), grid...)
	for it := 0; it < iters; it++ {
		for r := 1; r < oceanN-1; r++ {
			for c := 1; c < oceanN-1; c++ {
				up, dn := g[(r-1)*oceanN+c], g[(r+1)*oceanN+c]
				lf, rt := g[r*oceanN+c-1], g[r*oceanN+c+1]
				next[r*oceanN+c] = (up + dn + lf + rt) / 4
			}
		}
		g, next = next, g
	}
	return g
}

// Service-open key space and lock stripes: opensim's defaults, fixed here
// because the traced run rebuilds the heap layout from them.
const (
	simKeys    = 256
	simStripes = 8
)

// setupService configures the open-loop service simulation: one worker
// plus the generator thread, the default mix and mean gap, inputs drawn
// from seed. Set-up builds the plan and programs once, for the traced run;
// opensim.Run builds them again on every run.
func setupService(seed uint64, requests int) (*bench, error) {
	cfg := opensim.Config{Workers: threads - 1, Requests: requests, Seed: seed, Keys: simKeys, Stripes: simStripes}
	progs := opensim.VetPrograms(cfg, threads)
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("service-open thread %d: %w", i, err)
		}
	}
	b := &bench{
		name:    "service-open",
		ops:     int64(requests),
		opUnit:  "request",
		engines: []harness.EngineKind{harness.LazyDet, harness.Consequence},
		// opensim's heap layout: 8 control words, the accounts, one
		// queue slot and a 4-word stamp record per request. A drift
		// shows as a heap-hash mismatch against the reference run.
		w: &harness.Workload{
			Name:      "opensim",
			HeapWords: 8 + simKeys + 5*int64(requests),
			Locks:     1 + simStripes,
			Programs:  func(int) []*dvm.Program { return progs },
		},
		sim: map[harness.EngineKind]*opensim.Result{},
	}
	simRun := func(eng harness.EngineKind, trace bool) (*harness.Result, error) {
		c := cfg
		c.Engine, c.Trace = eng, trace
		res, err := opensim.Run(c)
		if err != nil {
			return nil, err
		}
		if len(res.Requests) != requests {
			return res.Harness, fmt.Errorf("service-open: %d requests served, want %d", len(res.Requests), requests)
		}
		b.sim[eng] = res
		return res.Harness, nil
	}
	b.run = func(eng harness.EngineKind) (*harness.Result, error) { return simRun(eng, false) }
	b.ref = func(eng harness.EngineKind) (*harness.Result, error) { return simRun(eng, true) }
	return b, nil
}
