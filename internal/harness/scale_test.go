package harness_test

import (
	"testing"

	"lazydet/internal/harness"
	"lazydet/internal/workloads"
)

// scaleWorkload builds the hash-table microbenchmark sized so the total
// operation count stays constant as threads grow — the Threads-scaling
// shape of the arbiter experiments.
func scaleWorkload(threads int) *harness.Workload {
	cfg := workloads.DefaultHTConfig(workloads.HT)
	cfg.OpsPerThread = 2048 / threads
	if cfg.OpsPerThread < 4 {
		cfg.OpsPerThread = 4
	}
	return workloads.NewHashTable(cfg)
}

// TestScheduleEquivalenceAcrossArbiters is the schedule-equivalence check
// for the tournament arbiter: at t=4, 64 and 256 on both strong engines, a
// plain run and a run whose every grant is re-checked against the flat
// O(n) scan over true clocks (turn-minimum) and a scan of the published
// keys (arbiter-tree-min) must produce bit-identical traces, sync-event
// counts and final heaps, with no violation. The audited run shows each
// grant is the flat minimum; the identical plain trace shows the tree
// elects the same thread unaudited.
func TestScheduleEquivalenceAcrossArbiters(t *testing.T) {
	for _, threads := range []int{4, 64, 256} {
		for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
			opt := harness.Options{Engine: eng, Threads: threads, Trace: true}
			tree, err := harness.Run(scaleWorkload(threads), opt)
			if err != nil {
				t.Fatalf("t=%d %v tree arbiter: %v", threads, eng, err)
			}
			flat, violations, err := auditedRun(scaleWorkload(threads), opt)
			if err != nil {
				t.Fatalf("t=%d %v flat-checked arbiter: %v", threads, eng, err)
			}
			if len(violations) != 0 {
				t.Fatalf("t=%d %v: %d violation(s), first: %v", threads, eng, len(violations), violations[0])
			}
			if tree.TraceSig != flat.TraceSig {
				t.Errorf("t=%d %v: trace signature diverges: tree %x, flat-checked %x",
					threads, eng, tree.TraceSig, flat.TraceSig)
			}
			if tree.SyncEvents != flat.SyncEvents {
				t.Errorf("t=%d %v: sync event counts diverge: tree %d, flat-checked %d",
					threads, eng, tree.SyncEvents, flat.SyncEvents)
			}
			if tree.HeapHash != flat.HeapHash {
				t.Errorf("t=%d %v: final heap diverges: tree %x, flat-checked %x",
					threads, eng, tree.HeapHash, flat.HeapHash)
			}
		}
	}
}

// TestScaleRunWithInvariants runs the scale workload at t=4, 64 and 256 on
// both strong engines with the full audit layer on: at every turn grant the
// holder must be the (DLC, tid) minimum over true clocks (turn-minimum) and
// the tournament trees must agree with a scan of the published keys
// (arbiter-tree-min); the heap's trim floor is audited at every commit. A
// second run must reproduce the trace and the final heap — the grant order
// is specified by (DLC, tid) alone.
func TestScaleRunWithInvariants(t *testing.T) {
	for _, threads := range []int{4, 64, 256} {
		for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
			opt := harness.Options{Engine: eng, Threads: threads, Trace: true}
			var runs [2]*harness.Result
			for i := range runs {
				res, violations, err := auditedRun(scaleWorkload(threads), opt)
				if err != nil {
					t.Fatalf("t=%d %v run %d: %v", threads, eng, i+1, err)
				}
				if len(violations) != 0 {
					t.Fatalf("t=%d %v run %d: %d violation(s), first: %v", threads, eng, i+1, len(violations), violations[0])
				}
				runs[i] = res
			}
			if runs[0].TraceSig != runs[1].TraceSig || runs[0].HeapHash != runs[1].HeapHash {
				t.Errorf("t=%d %v: runs diverge: trace %x/%x heap %x/%x",
					threads, eng, runs[0].TraceSig, runs[1].TraceSig, runs[0].HeapHash, runs[1].HeapHash)
			}
		}
	}
}
