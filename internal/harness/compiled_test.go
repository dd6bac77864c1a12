package harness_test

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
)

// TestScheduleEquivalenceAcrossBackends is the schedule-equivalence oracle
// for the threaded-code backend: at t=4, 64 and 256, the compiled backend
// and the interpreter must produce bit-identical synchronization traces,
// sync-event counts, final heaps, and gated metrics on both strong engines.
// The deterministic schedule is a function of published clock values alone;
// which dispatch mechanism retires the instructions must be unobservable.
func TestScheduleEquivalenceAcrossBackends(t *testing.T) {
	for _, threads := range []int{4, 64, 256} {
		for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
			base := harness.Options{
				Engine:      eng,
				Threads:     threads,
				Trace:       true,
				Telemetry:   true,
				CollectSpec: eng == harness.LazyDet,
			}
			interp, err := harness.Run(scaleWorkload(threads), base)
			if err != nil {
				t.Fatalf("t=%d %v interpreter: %v", threads, eng, err)
			}
			copt := base
			copt.Compiled = true
			comp, err := harness.Run(scaleWorkload(threads), copt)
			if err != nil {
				t.Fatalf("t=%d %v compiled: %v", threads, eng, err)
			}
			if interp.TraceSig != comp.TraceSig {
				t.Errorf("t=%d %v: trace signature diverges: interp %x, compiled %x",
					threads, eng, interp.TraceSig, comp.TraceSig)
			}
			if interp.SyncEvents != comp.SyncEvents {
				t.Errorf("t=%d %v: sync event counts diverge: interp %d, compiled %d",
					threads, eng, interp.SyncEvents, comp.SyncEvents)
			}
			if interp.HeapHash != comp.HeapHash {
				t.Errorf("t=%d %v: final heap diverges: interp %x, compiled %x",
					threads, eng, interp.HeapHash, comp.HeapHash)
			}
			// Every gated metric — DLC totals, tick-flush counts, commit
			// totals, speculation outcomes, retired opcode mix — must be
			// bit-identical. Compile cost and fusion statistics live in
			// the never-gated Timing half, so the Metrics maps compare
			// clean across backends.
			im := harness.BuildReport(interp).Metrics
			cm := harness.BuildReport(comp).Metrics
			for k, iv := range im {
				if cv, ok := cm[k]; !ok || cv != iv {
					t.Errorf("t=%d %v: metric %q diverges: interp %v, compiled %v (present=%v)",
						threads, eng, k, iv, cv, ok)
				}
			}
			for k := range cm {
				if _, ok := im[k]; !ok {
					t.Errorf("t=%d %v: metric %q present only under the compiled backend", threads, eng, k)
				}
			}
		}
	}
}

// revertWorkload builds a two-thread workload engineered to revert a
// speculative run whose region contains fused superinstructions: thread 1
// speculates across a fused read-modify-write and a loop, and thread 0's
// earlier conventional commit on the shared lock conflicts with it. The
// revert restores the PC of the first speculative lock — a fusion-block
// entry — and the re-execution re-runs the fused blocks. Thread 1 also
// stores before the run begins: the revert must reinstate that pre-run
// write, and a later publication must still commit it.
func revertWorkload() *harness.Workload {
	return &harness.Workload{
		Name:      "revert-fused",
		HeapWords: 64,
		Locks:     2,
		Programs: func(threads int) []*dvm.Program {
			b0 := dvm.NewBuilder("t0")
			b0.Lock(dvm.Const(0))
			b0.Store(dvm.Const(8), dvm.Const(1))
			b0.Unlock(dvm.Const(0))

			b1 := dvm.NewBuilder("t1")
			i := b1.Reg()
			r := b1.Reg()
			b1.Store(dvm.Const(10), dvm.Const(5)) // pre-run write
			b1.Lock(dvm.Const(1))                 // begin a speculative run
			b1.ForN(i, 200, func() {
				b1.Do(func(*dvm.Thread) {})
			})
			b1.Lock(dvm.Const(0)) // extend over the contended lock
			// Fused load-do-store inside the speculative region: the
			// revert must rewind and re-execute it exactly once more.
			b1.Load(r, dvm.Const(9))
			b1.Do(func(t *dvm.Thread) { t.SetR(r, t.R(r)+2) })
			b1.Store(dvm.Const(9), dvm.FromReg(r))
			b1.Unlock(dvm.Const(0))
			b1.Unlock(dvm.Const(1))
			return []*dvm.Program{b0.Build(), b1.Build()}
		},
		Validate: func(read func(addr int64) int64, threads int) error {
			if read(8) != 1 || read(9) != 2 || read(10) != 5 {
				return fmt.Errorf("revert-fused final memory (8)=%d (9)=%d (10)=%d, want 1, 2 and 5", read(8), read(9), read(10))
			}
			return nil
		},
	}
}

// TestCompiledRevertMidFusedBlock forces a speculation revert whose
// re-executed region contains fused superinstructions, under both backends
// with the invariant audit layer on, and requires identical traces, heaps
// and speculation accounting — the directed revert case of the
// compiled-backend oracle.
func TestCompiledRevertMidFusedBlock(t *testing.T) {
	run := func(compiled bool) *harness.Result {
		t.Helper()
		res, err := harness.Run(revertWorkload(), harness.Options{
			Engine:          harness.LazyDet,
			Threads:         2,
			Trace:           true,
			CollectSpec:     true,
			CheckInvariants: true,
			Compiled:        compiled,
		})
		if err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		return res
	}
	interp := run(false)
	comp := run(true)
	if interp.Spec.Reverts.Load() == 0 {
		t.Fatalf("interpreter run did not revert; the directed conflict no longer fires")
	}
	if comp.Spec.Reverts.Load() == 0 {
		t.Fatalf("compiled run did not revert; the directed conflict no longer fires")
	}
	if interp.TraceSig != comp.TraceSig {
		t.Errorf("trace signature diverges: interp %x, compiled %x", interp.TraceSig, comp.TraceSig)
	}
	if interp.HeapHash != comp.HeapHash {
		t.Errorf("final heap diverges: interp %x, compiled %x", interp.HeapHash, comp.HeapHash)
	}
	if ir, cr := interp.Spec.Reverts.Load(), comp.Spec.Reverts.Load(); ir != cr {
		t.Errorf("revert counts diverge: interp %d, compiled %d", ir, cr)
	}
	if ic, cc := interp.Spec.Commits.Load(), comp.Spec.Commits.Load(); ic != cc {
		t.Errorf("commit counts diverge: interp %d, compiled %d", ic, cc)
	}
}
