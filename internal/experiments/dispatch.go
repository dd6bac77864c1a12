// The dispatch sweep: ns/instruction for the interpreter vs the threaded-code
// backend vs direct (pthreads) execution, across program shapes chosen to
// stress different parts of the lowering pass — straight-line compute (pure
// dispatch), load-modify-store sequences (superinstruction fusion), dense
// branching (block transitions and loop back-edge threading), and lock-heavy
// loops (engine ops that break fusion blocks).
//
// The instruction denominator is the exact retired-instruction count from the
// dvm.retired.* telemetry of a reference run; it is a deterministic function
// of the programs alone, so one count serves every backend. Each sweep point
// also cross-checks the two deterministic backends: traces and final memory
// must be bit-identical, the interpreter serving as the differential oracle.
package experiments

import (
	"fmt"
	"strings"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
)

// dispatchShape is one program family of the sweep: a workload factory whose
// per-thread programs have a statically fixed instruction count. runLens, for
// lock shapes, sweeps the same-owner reacquire run length — how many
// consecutive critical sections a thread runs on its own lock before a
// compute gap lets another thread's turn intervene. Longer runs are
// uninterrupted same-owner chains, which LazyDet's speculation coarsens; a
// nil runLens means the knob does not apply and the shape is measured once
// with runlen 0.
type dispatchShape struct {
	name    string
	runLens []int64
	build   func(threads int, iters, runlen int64) *harness.Workload
}

// privateWords is the per-thread private heap span of the sweep's workloads;
// threads never share an address, so every shape is race-free and its final
// memory and retired-instruction mix are schedule-independent.
const privateWords = 64

func dispatchShapes() []dispatchShape {
	return []dispatchShape{
		{"compute", nil, func(threads int, iters, _ int64) *harness.Workload {
			return dispatchWorkload("compute", threads, 0, func(b *dvm.Builder, tid int) {
				acc := b.Reg()
				i := b.Reg()
				b.Set(acc, 0)
				b.ForN(i, iters, func() {
					b.Do(func(t *dvm.Thread) { t.SetR(acc, t.R(acc)*3+1) })
					b.Do(func(t *dvm.Thread) { t.SetR(acc, t.R(acc)&0xffff) })
				})
				b.Store(dvm.Const(int64(tid*privateWords)), dvm.FromReg(acc))
			})
		}},
		{"loadstore", nil, func(threads int, iters, _ int64) *harness.Workload {
			return dispatchWorkload("loadstore", threads, 0, func(b *dvm.Builder, tid int) {
				addr := int64(tid * privateWords)
				r := b.Reg()
				i := b.Reg()
				b.ForN(i, iters, func() {
					b.Load(r, dvm.Const(addr))
					b.Do(func(t *dvm.Thread) { t.SetR(r, t.R(r)+1) })
					b.Store(dvm.Const(addr), dvm.FromReg(r))
				})
			})
		}},
		{"branchy", nil, func(threads int, iters, _ int64) *harness.Workload {
			return dispatchWorkload("branchy", threads, 0, func(b *dvm.Builder, tid int) {
				acc := b.Reg()
				i := b.Reg()
				b.Set(acc, 0)
				b.ForN(i, iters, func() {
					b.IfElse(func(t *dvm.Thread) bool { return t.R(i)&1 == 0 },
						func() { b.Do(func(t *dvm.Thread) { t.SetR(acc, t.R(acc)+2) }) },
						func() { b.Do(func(t *dvm.Thread) { t.SetR(acc, t.R(acc)-1) }) })
				})
				b.Store(dvm.Const(int64(tid*privateWords)), dvm.FromReg(acc))
			})
		}},
		// The locked shape sweeps the reacquire run length: runlen
		// consecutive critical sections on the thread's own lock, then a
		// compute gap whose DLC cost lets every other thread's pending turn
		// intervene. runlen 1 is the old tight loop (every release
		// immediately observed); longer runs are uninterrupted same-owner
		// chains. Loop-control overhead differs slightly per run
		// length, so each runlen point takes its own retired-instruction
		// reference.
		{"locked", []int64{1, 8, 64}, func(threads int, iters, runlen int64) *harness.Workload {
			return dispatchWorkload(fmt.Sprintf("locked/r%d", runlen), threads, threads, func(b *dvm.Builder, tid int) {
				addr := int64(tid * privateWords)
				lock := dvm.Const(int64(tid))
				r := b.Reg()
				i := b.Reg()
				j := b.Reg()
				b.DoCost(1+int64(tid)*512, func(*dvm.Thread) {})
				b.ForN(i, iters/runlen, func() {
					b.DoCost(4096, func(*dvm.Thread) {})
					b.ForN(j, runlen, func() {
						b.Lock(lock)
						b.Load(r, dvm.Const(addr))
						b.Do(func(t *dvm.Thread) { t.SetR(r, t.R(r)+1) })
						b.Store(dvm.Const(addr), dvm.FromReg(r))
						b.Unlock(lock)
					})
				})
			})
		}},
	}
}

// dispatchWorkload assembles a race-free workload from a per-thread program
// generator; each thread owns its own privateWords span (and, for lock
// shapes, its own lock).
func dispatchWorkload(name string, threads, locks int, gen func(b *dvm.Builder, tid int)) *harness.Workload {
	return &harness.Workload{
		Name:      "dispatch/" + name,
		HeapWords: int64(threads * privateWords),
		Locks:     locks,
		Programs: func(threads int) []*dvm.Program {
			progs := make([]*dvm.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := dvm.NewBuilder(fmt.Sprintf("%s-t%d", name, tid))
				gen(b, tid)
				progs[tid] = b.Build()
			}
			return progs
		},
	}
}

// retiredInstructions sums the dvm.retired.* opcode counters of one
// telemetry run — the exact number of instructions the run retired.
func retiredInstructions(res *harness.Result) int64 {
	if res.Telemetry == nil {
		return 0
	}
	var total int64
	//lazydet:nondeterministic order-independent sum over the counter map
	for k, v := range res.Telemetry.Snapshot().Counters {
		if strings.HasPrefix(k, "dvm.retired.") {
			total += v
		}
	}
	return total
}

// DispatchSweep measures instruction-dispatch cost — wall time divided by
// retired instructions — for each backend across the dispatch shapes:
//
//	direct    pthreads engine, interpreter (no deterministic scheduling)
//	interp    LazyDet engine, interpreter
//	compiled  LazyDet engine, threaded code
//
// and verifies at every point that the two LazyDet backends produce
// bit-identical traces and final memory.
func DispatchSweep(cfg Config) error {
	cfg = cfg.withDefaults()
	threads := 8
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	iters := int64(200_000)
	if cfg.Quick {
		iters = 20_000
	}
	iters *= int64(cfg.Scale)
	csvf, err := cfg.csvFile("dispatchsweep", "shape", "runlen", "backend", "wall_s", "instructions", "ns_per_instr")
	if err != nil {
		return err
	}
	defer csvf.close()
	cfg.printf("dispatch cost by backend: %d threads, %d iterations/thread\n", threads, iters)
	cfg.printf("%-10s %7s %10s %12s %14s %14s\n", "shape", "runlen", "backend", "wall", "instructions", "ns/instr")
	for _, shape := range dispatchShapes() {
		runLens := shape.runLens
		if runLens == nil {
			runLens = []int64{0}
		}
		for _, runlen := range runLens {
			w := shape.build(threads, iters, runlen)
			// Reference run: exact retired-instruction count, shared by every
			// backend below (the count is deterministic and backend-invariant).
			ref, err := harness.Run(w, harness.Options{
				Engine: harness.LazyDet, Threads: threads, Telemetry: true, Trace: true,
			})
			if err != nil {
				return fmt.Errorf("dispatchsweep: %s reference: %w", w.Name, err)
			}
			instrs := retiredInstructions(ref)
			if instrs == 0 {
				return fmt.Errorf("dispatchsweep: %s reference retired no instructions", w.Name)
			}
			backends := []struct {
				name string
				opt  harness.Options
			}{
				{"direct", harness.Options{Engine: harness.Pthreads, Threads: threads}},
				{"interp", harness.Options{Engine: harness.LazyDet, Threads: threads, Trace: true}},
				{"compiled", harness.Options{Engine: harness.LazyDet, Threads: threads, Trace: true, Compiled: true}},
			}
			var sigs [2]*harness.Result
			for _, bk := range backends {
				mean, _, last, err := measure(w, bk.opt, cfg.Reps)
				if err != nil {
					return fmt.Errorf("dispatchsweep: %s %s: %w", w.Name, bk.name, err)
				}
				switch bk.name {
				case "interp":
					sigs[0] = last
				case "compiled":
					sigs[1] = last
				}
				nsPerInstr := mean * 1e9 / float64(instrs)
				cfg.printf("%-10s %7d %10s %12.4fs %14d %14.2f\n", shape.name, runlen, bk.name, mean, instrs, nsPerInstr)
				csvf.row(shape.name, runlen, bk.name, mean, instrs, nsPerInstr)
			}
			if sigs[0].TraceSig != sigs[1].TraceSig || sigs[0].HeapHash != sigs[1].HeapHash {
				return fmt.Errorf("dispatchsweep: %s: interpreter and threaded code diverge (trace %x/%x heap %x/%x)",
					w.Name, sigs[0].TraceSig, sigs[1].TraceSig, sigs[0].HeapHash, sigs[1].HeapHash)
			}
		}
	}
	cfg.printf("all shapes: interpreter and threaded-code schedules bit-identical\n")
	return nil
}
