package core

import (
	"lazydet/internal/dvm"
	"lazydet/internal/trace"
)

// This file implements deterministic atomic read-modify-write operations —
// the extension the paper's §7 names as the natural next step for LazyDet:
// atomic instructions were incompatible with prior DMT systems (Table 3),
// and determinism-by-total-order would squander the speed developers chose
// atomics for. Two treatments are provided:
//
//   - Eager (all deterministic engines, and LazyDet outside speculation or
//     with SpeculativeAtomics disabled): the atomic is a synchronization
//     operation — wait for the turn, publish, apply, publish again. Totally
//     ordered, hence deterministic.
//   - Speculative (LazyDet with SpecConfig.SpeculativeAtomics): the atomic
//     applies to the thread's isolated view with no coordination, and the
//     accessed location is recorded in the run's atomic log. Conflict
//     detection extends to those locations exactly as it covers locks: the
//     run fails if any logged location was atomically updated by a
//     committed run or eager atomic since the run began — "detecting
//     conflicts only on locations accessed by the atomics" (§7).
//
// Atomic locations are assumed not to be concurrently updated by plain
// stores (the usual discipline for atomics); plain reads of them are safe.

// Atomic implements dvm.Engine.
func (e *Engine) Atomic(t *dvm.Thread, a *dvm.Atomic) int64 {
	ts := e.ts(t)
	if e.cfg.Speculation && ts.spec && !ts.irrevocable {
		if e.cfg.Spec.SpeculativeAtomics {
			return e.specAtomic(t, ts, a)
		}
		// Without the extension an atomic is inter-thread communication:
		// terminate the run (commit if possible, revert otherwise), or —
		// inside a critical section — upgrade to irrevocable, exactly
		// like a system call. The location is logged before the upgrade
		// so its conflict check covers this access.
		if ts.depth > 0 {
			ts.atomTouch(a.Addr(t))
			if !e.enterIrrevocable(t, ts) {
				return t.Regs[a.Dst] // reverted: value is irrelevant
			}
		} else if !e.terminateRun(t, ts) {
			return t.Regs[a.Dst]
		}
	}
	if ts.irrevocable {
		return e.irrevocableAtomic(t, ts, a)
	}
	return e.eagerAtomic(t, ts, a)
}

// irrevocableAtomic applies a read-modify-write inside an irrevocable run.
// Locations already in the atomic log were validated fresh at the upgrade
// (and may carry this run's own updates), so they read through the view;
// a location touched for the first time reads the newest committed value,
// which is stable because no other thread can commit while the run is
// irrevocable — both cases are deterministic.
func (e *Engine) irrevocableAtomic(t *dvm.Thread, ts *tstate, a *dvm.Atomic) int64 {
	addr := a.Addr(t)
	if ts.atomCount[addr] > 0 {
		cur := ts.view.Load(addr)
		store, result := a.Apply(t, cur)
		ts.view.Store(addr, store)
		ts.atomTouch(addr)
		e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
		return result
	}
	cur := e.heap.ReadCommitted(addr)
	store, result := a.Apply(t, cur)
	// The value was computed against state newer than the view's base, so
	// the store must win the commit merge even if it looks silent.
	ts.view.StoreDirty(addr, store)
	ts.atomTouch(addr)
	e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
	return result
}

// eagerAtomic totally orders the read-modify-write at the turn. The same
// sequence serves both memory substrates: on flat memory the publish and
// refresh halves are no-ops, leaving exactly the load/apply/store the weak
// engines need.
func (e *Engine) eagerAtomic(t *dvm.Thread, ts *tstate, a *dvm.Atomic) int64 {
	e.waitCommitTurn(t)
	addr := a.Addr(t)
	e.publishAndRefresh(t, ts)
	cur := ts.mem.Load(addr)
	store, result := a.Apply(t, cur)
	ts.mem.Store(addr, store)
	e.publishAndRefresh(t, ts)
	if e.strong() {
		e.tbl.Atomics[addr] = e.heap.Seq()
	}
	e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
	e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
	return result
}

// specAtomic applies the read-modify-write to the isolated view and logs
// the location for commit-time conflict detection.
func (e *Engine) specAtomic(t *dvm.Thread, ts *tstate, a *dvm.Atomic) int64 {
	addr := a.Addr(t)
	cur := ts.view.Load(addr)
	store, result := a.Apply(t, cur)
	ts.view.Store(addr, store)
	ts.atomTouch(addr)
	e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
	return result
}

// atomTouch records an atomically accessed location in the run's log.
func (ts *tstate) atomTouch(addr int64) {
	if ts.atomCount == nil {
		ts.atomCount = make(map[int64]int)
	}
	if ts.atomCount[addr] == 0 {
		ts.atomLog = append(ts.atomLog, addr)
	}
	ts.atomCount[addr]++
}

// validateAtomics checks the atomic log against the location table: a
// conflict exists if any logged location was atomically updated by a commit
// the run's heap base does not include.
func (e *Engine) validateAtomics(ts *tstate) bool {
	for _, addr := range ts.atomLog {
		if e.tbl.Atomics[addr] > ts.baseAtBegin {
			return false
		}
	}
	return true
}

// commitAtomicsLocked publishes the run's atomic updates into the location
// table. Caller holds the turn and has committed the heap.
func (e *Engine) commitAtomicsLocked(ts *tstate) {
	if len(ts.atomLog) == 0 {
		return
	}
	seq := e.heap.Seq()
	for _, addr := range ts.atomLog {
		e.tbl.Atomics[addr] = seq
	}
}
