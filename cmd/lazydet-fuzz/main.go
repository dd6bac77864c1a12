// Command lazydet-fuzz differentially stress-tests the engines. It
// generates random data-race-free commutative programs, whose final memory
// is schedule-independent and predicted on the host, runs each under every
// engine, and checks these properties per seed:
//
//  1. correctness: every engine's final memory matches the model exactly.
//  2. determinism: Consequence, TotalOrder-Weak and LazyDet, and LazyDet
//     with write-aware conflict detection, reproduce identical trace
//     signatures and memory across repeated runs.
//  3. speculation accounting: LazyDet's commits plus reverts equal its run
//     count.
//  4. runtime invariants (with -invariants): turn-holder uniqueness, heap
//     commit monotonicity, lock-table consistency and snapshot round-trip
//     exactness hold at every turn grant and commit/revert.
//  5. no static false positives (with -vet, on by default): progcheck
//     reports zero error findings on these race-free, deadlock-free
//     programs. Warnings are tallied and their rate printed.
//  6. no static false negatives (with -vet): after a lock acquisition that
//     is never released is seeded into a copy of a program, progcheck must
//     report the held-at-exit finding.
//  8. execution-backend oracle: Consequence and LazyDet also run on the
//     opposite backend to the one selected (the interpreter, or with
//     -compiled the threaded-code backend). The trace signature, the final
//     memory and every gated telemetry metric must be bit-identical.
//  9. speculation hints (unless -nohints): LazyDet with the static
//     footprint hints (harness.Options.SpecHints) is deterministic, commits
//     the same final memory as the unhinted run, and charges no conflict
//     revert to a lock the analysis proved Disjoint.
//
// Numbers 7 and 10 are retired: they checked options that no longer exist.
//
//	lazydet-fuzz -seeds 100 -threads 4
//	lazydet-fuzz -seeds 1000 -ops 120 -start 42
//	lazydet-fuzz -seeds 50 -invariants
//	lazydet-fuzz -seeds 50 -invariants -compiled
//	lazydet-fuzz -seeds 5 -threads 256 -ops 8 -invariants
package main

import (
	"flag"
	"fmt"
	"os"

	"lazydet/internal/core"
	"lazydet/internal/dvm"
	"lazydet/internal/harness"
	"lazydet/internal/invariant"
	"lazydet/internal/progcheck"
	"lazydet/internal/randprog"
)

// seedHeldLockBug returns a copy of p with a deliberate lock-discipline bug:
// the trailing halt is prefixed with an acquisition of lock 0 that is never
// released, so every execution exits holding it. Used to cross-check that
// the static analyzer still catches a bug it is specified to catch.
func seedHeldLockBug(p *dvm.Program) *dvm.Program {
	n := len(p.Code)
	if n == 0 || p.Code[n-1].Op != dvm.OpHalt {
		return nil
	}
	code := make([]dvm.Instr, n+1)
	copy(code, p.Code)
	code[n-1] = dvm.Instr{
		Op:    dvm.OpLock,
		Cost:  1,
		Addr:  func(*dvm.Thread) int64 { return 0 },
		SAddr: dvm.SVal{Known: true, K: 0},
	}
	code[n] = dvm.Instr{Op: dvm.OpHalt, Cost: 1}
	mut := *p
	mut.Name = p.Name + "+held-lock-bug"
	mut.Code = code
	return &mut
}

func hasClass(rep *progcheck.Report, class progcheck.Class) bool {
	for _, f := range rep.Findings {
		if f.Class == class {
			return true
		}
	}
	return false
}

func main() {
	seeds := flag.Int("seeds", 50, "number of random programs")
	start := flag.Uint64("start", 1, "first seed")
	threads := flag.Int("threads", 4, "simulated thread count")
	ops := flag.Int("ops", 60, "operations per thread")
	invariants := flag.Bool("invariants", false, "audit runtime invariants at every turn and commit/revert")
	vet := flag.Bool("vet", true, "cross-check progcheck static verdicts against runtime outcomes")
	compiled := flag.Bool("compiled", false, "run the threaded-code backend instead of the interpreter")
	noHints := flag.Bool("nohints", false, "skip the statically hinted LazyDet runs (unhinted differential baseline only)")
	verbose := flag.Bool("v", false, "print every seed")
	flag.Parse()

	cfg := randprog.DefaultConfig(*threads)
	cfg.OpsPerThread = *ops

	failures := 0
	vetSeeds, vetFalseWarnings := 0, 0
	for s := uint64(0); s < uint64(*seeds); s++ {
		seed := *start + s
		w, _, err := randprog.Generate(seed, cfg)
		if err != nil {
			fmt.Printf("seed %d: generator failed: %v\n", seed, err)
			failures++
			continue
		}
		ok := true
		var violations []*invariant.Violation
		baseOpt := harness.Options{
			Threads: *threads, Compiled: *compiled,
		}
		if *invariants {
			baseOpt.CheckInvariants = true
			baseOpt.OnViolation = func(v *invariant.Violation) { violations = append(violations, v) }
		}

		// Properties 5 and 6: static/runtime cross-check. The generator
		// emits race-free, deadlock-free programs, so (5) every progcheck
		// finding on them is a false positive — errors fail the seed,
		// warnings only feed the rate printed at the end — and (6) seeding
		// a lock-held-at-exit bug into a copy must produce exactly that
		// finding, or the analyzer has a soundness hole.
		if *vet {
			progs := w.Programs(*threads)
			rep := progcheck.Check(progs)
			if n := rep.CountBySeverity(progcheck.SevError); n > 0 {
				fmt.Printf("seed %d: progcheck false positive: %d error finding(s) on a race-free program:\n%s",
					seed, n, rep.Human())
				ok = false
			}
			vetFalseWarnings += rep.CountBySeverity(progcheck.SevWarn)
			vetSeeds++
			if mut := seedHeldLockBug(progs[0]); mut == nil {
				fmt.Printf("seed %d: progcheck cross-check: generated program does not end in halt\n", seed)
				ok = false
			} else if mrep := progcheck.Check([]*dvm.Program{mut}); !hasClass(mrep, progcheck.ClassHeldAtExit) {
				fmt.Printf("seed %d: progcheck MISSED a seeded %s bug in %s\n",
					seed, progcheck.ClassHeldAtExit, mut.Name)
				ok = false
			}
		}

		// Property 1: model equivalence under every engine.
		for _, eng := range harness.AllEngines {
			opt := baseOpt
			opt.Engine = eng
			if _, err := harness.Run(w, opt); err != nil {
				fmt.Printf("seed %d: %s: %v\n", seed, eng, err)
				ok = false
			}
		}
		// Properties 2 and 3: determinism + speculation accounting, for
		// the deterministic engines plus LazyDet's write-aware variant.
		type variant struct {
			name       string
			engine     harness.EngineKind
			writeAware bool
			hints      bool
		}
		variants := []variant{
			{"Consequence", harness.Consequence, false, false},
			{"TotalOrder-Weak", harness.TotalOrderWeak, false, false},
			{"LazyDet", harness.LazyDet, false, false},
			{"LazyDet-WriteAware", harness.LazyDet, true, false},
			{"LazyDet-Hints", harness.LazyDet, false, true},
		}
		var lazyRef *harness.Result // the unhinted LazyDet run, property 9's oracle
		for _, va := range variants {
			if va.hints && *noHints {
				continue
			}
			opt := baseOpt
			opt.Engine = va.engine
			opt.Trace = true
			opt.CollectSpec = va.engine == harness.LazyDet
			opt.SpecHints = va.hints
			if va.writeAware {
				opt.Spec = core.DefaultSpecConfig()
				opt.Spec.WriteAware = true
			}
			r1, err1 := harness.Run(w, opt)
			r2, err2 := harness.Run(w, opt)
			if err1 != nil || err2 != nil {
				fmt.Printf("seed %d: %s: %v %v\n", seed, va.name, err1, err2)
				ok = false
				continue
			}
			if r1.TraceSig != r2.TraceSig || r1.HeapHash != r2.HeapHash {
				fmt.Printf("seed %d: %s NOT DETERMINISTIC (trace %x/%x heap %x/%x)\n",
					seed, va.name, r1.TraceSig, r2.TraceSig, r1.HeapHash, r2.HeapHash)
				ok = false
			}
			if r1.Spec != nil {
				runs, commits, reverts := r1.Spec.Runs.Load(), r1.Spec.Commits.Load(), r1.Spec.Reverts.Load()
				if commits+reverts != runs {
					fmt.Printf("seed %d: %s speculation accounting broken: %d commits + %d reverts != %d runs\n",
						seed, va.name, commits, reverts, runs)
					ok = false
				}
			}
			if va.name == "LazyDet" {
				lazyRef = r1
			}
			// Property 9: static speculation hints. The hinted schedule may
			// differ (hints change when the engine speculates), but the
			// committed state may not — the generator's programs have
			// schedule-independent finals — and a statically Disjoint lock
			// must never be charged a conflict revert.
			if va.hints {
				if lazyRef != nil && r1.HeapHash != lazyRef.HeapHash {
					fmt.Printf("seed %d: hinted LazyDet heap %x != unhinted %x\n",
						seed, r1.HeapHash, lazyRef.HeapHash)
					ok = false
				}
				if r1.Hints == nil {
					fmt.Printf("seed %d: SpecHints requested but no verdict table on the result\n", seed)
					ok = false
				} else {
					for _, l := range r1.Hints.Locks() {
						if r1.Hints.Verdicts[l] != progcheck.VerdictDisjoint {
							continue
						}
						if l < int64(len(r1.LockReverts)) && r1.LockReverts[l] != 0 {
							fmt.Printf("seed %d: statically Disjoint lock %d charged %d conflict revert(s): %s\n",
								seed, l, r1.LockReverts[l], r1.Hints.Reasons[l])
							ok = false
						}
					}
				}
			}
		}
		for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
			// Property 8: execution-backend oracle. The threaded-code
			// backend and the interpreter publish identical clocks at
			// every sync point, so the schedule — and with it the trace,
			// the final memory and every gated metric — must be
			// bit-identical per seed. Telemetry is on for both runs so the
			// gated metrics can be diffed, not just the fingerprints.
			opt := baseOpt
			opt.Engine = eng
			opt.Trace = true
			opt.Telemetry = true
			ref, err := harness.Run(w, opt)
			if err != nil {
				fmt.Printf("seed %d: %s: %v\n", seed, eng, err)
				ok = false
				continue
			}
			bopt := opt
			bopt.Compiled = !opt.Compiled
			bres, err := harness.Run(w, bopt)
			if err != nil {
				fmt.Printf("seed %d: %s backend oracle: %v\n", seed, eng, err)
				ok = false
				continue
			}
			if ref.TraceSig != bres.TraceSig || ref.HeapHash != bres.HeapHash {
				fmt.Printf("seed %d: %s DIVERGES from backend oracle (trace %x/%x heap %x/%x)\n",
					seed, eng, ref.TraceSig, bres.TraceSig, ref.HeapHash, bres.HeapHash)
				ok = false
			}
			for _, m := range harness.GatedMetricDiffs(ref, bres) {
				fmt.Printf("seed %d: %s gated metric differs across backends: %s\n", seed, eng, m)
				ok = false
			}
		}
		// Property 4: zero invariant violations across all of the above.
		for _, v := range violations {
			fmt.Printf("seed %d: %v\n", seed, v)
			ok = false
		}
		if !ok {
			failures++
		} else if *verbose {
			fmt.Printf("seed %d ok\n", seed)
		}
	}
	if failures > 0 {
		fmt.Printf("FAIL: %d of %d seeds\n", failures, *seeds)
		os.Exit(1)
	}
	suffix := ""
	if *invariants {
		suffix = ", zero invariant violations"
	}
	if vetSeeds > 0 {
		suffix += fmt.Sprintf("; progcheck: %d seeds cross-checked, %d warning false positive(s)", vetSeeds, vetFalseWarnings)
	}
	fmt.Printf("ok: %d seeds × %d engines, all equivalent and deterministic%s\n", *seeds, len(harness.AllEngines), suffix)
}
