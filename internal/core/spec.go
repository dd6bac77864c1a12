package core

import (
	"fmt"
	"time"

	"lazydet/internal/detsync"
	"lazydet/internal/dvm"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
)

// This file implements lazy determinism (paper §3): speculative order
// elision, lock-level conflict detection, commit and revert, adaptive
// speculation, and irrevocable upgrade.

// lazyLock is the LazyDet lock-acquisition path. Every acquisition at
// critical-section depth 0 is a decision point: begin a run, continue the
// current run, terminate it, or fall back to a conventional acquisition
// (Figure 3 in the paper).
func (e *Engine) lazyLock(t *dvm.Thread, ts *tstate, l int64) {
	if ts.spec {
		if ts.depth > 0 {
			// Nested acquisition inside a speculative critical
			// section: nesting is flattened into the run (§6.2).
			e.specAcquire(t, ts, l, true)
			return
		}
		want := e.shouldSpeculate(ts, l)
		if want && ts.runCS < e.cfg.Spec.MaxRunCS {
			e.specAcquire(t, ts, l, true)
			return
		}
		if !e.terminateRun(t, ts) {
			return // reverted: execution restarts from the snapshot
		}
		if want && !ts.noSpecNext {
			// The run only ended because it hit the coarsening
			// limit; chain a fresh run starting at this lock.
			e.beginRun(t, ts)
			e.specAcquire(t, ts, l, true)
			return
		}
		e.convLock(t, ts, l)
		return
	}
	if ts.depth == 0 && !ts.noSpecNext && e.shouldSpeculate(ts, l) {
		e.beginRun(t, ts)
		e.specAcquire(t, ts, l, true)
		return
	}
	// Progress guarantee: after a revert the next critical section runs
	// without speculation (§3.2).
	ts.noSpecNext = false
	e.convLock(t, ts, l)
}

// beginRun starts a speculation run at the current lock acquisition:
// snapshot thread state for roll-back and record BEGIN_i and the heap
// sequence the run's reads are based on (§3.1). Both snapshots are rebuilt
// into per-thread scratch buffers, so steady-state BEGINs allocate nothing.
func (e *Engine) beginRun(t *dvm.Thread, ts *tstate) {
	if e.audit != nil {
		// A stale lock-row entry would let a lock the run acquires skip
		// its log entry, and with it validation.
		e.audit.AtSpecLog(t.ID, ts)
	}
	ts.snapScratch = t.SnapshotInto(ts.snapScratch)
	ts.snap = ts.snapScratch
	ts.dirtyScratch = ts.view.SnapshotDirtyInto(ts.dirtyScratch)
	ts.dirtySnap = ts.dirtyScratch
	ts.begin = e.arb.DLC(t.ID)
	ts.baseAtBegin = ts.view.BaseSeq()
	ts.spec = true
	ts.runCS = 0
}

// logEntry is one lock of a run's log L_i.
type logEntry struct {
	lock  int64
	count int32 // acquisitions of the lock in this run
	write bool  // taken exclusively at least once in this run
}

// lockSlot is one entry of a thread's dense per-lock row, indexed by lock ID:
// the speculative acquire finds the lock's log entry without hashing.
type lockSlot struct {
	// logPos is 1 + the lock's position in logLocks, 0 when the current run
	// has not logged the lock. resetSpec clears exactly the slots the run
	// set, so the row is never scanned or reallocated per run.
	logPos int32
	// wrote tags a lock held during a store (WriteAware mode). A committing
	// run keeps the tags of the locks it still holds; every other tag is
	// cleared at the lock's release, commit or revert.
	wrote bool
}

// specAcquire records a speculative acquisition in the thread-local log
// L_i. No coordination with other threads happens (§3.1). Shared-mode
// acquisitions (write = false) are logged as reads, which never conflict
// with other readers.
func (e *Engine) specAcquire(t *dvm.Thread, ts *tstate, l int64, write bool) {
	slot := &ts.lockRow[l]
	if slot.logPos == 0 {
		ts.logLocks = append(ts.logLocks, logEntry{lock: l})
		slot.logPos = int32(len(ts.logLocks))
	}
	ent := &ts.logLocks[slot.logPos-1]
	ent.count++
	op := trace.OpRAcquire
	if write {
		ent.write = true
		ts.heldSpec = append(ts.heldSpec, l)
		op = trace.OpAcquire
	} else {
		ts.heldSpecRead = append(ts.heldSpecRead, l)
	}
	ts.depth++
	if ts.depth == 1 {
		ts.runCS++
	}
	if e.spec != nil {
		e.spec.TotalAcquires.Add(1)
		e.spec.SpecAcquires.Add(1)
	}
	e.rec.Sync(t.ID, op, l, e.arb.DLC(t.ID))
}

// specRelease records a speculative exclusive release. An irrevocable run
// terminates at the first point where no locks are held (§3.5).
func (e *Engine) specRelease(t *dvm.Thread, ts *tstate, l int64) {
	dropLast(&ts.heldSpec, l)
	ts.depth--
	e.rec.Sync(t.ID, trace.OpRelease, l, e.arb.DLC(t.ID))
	if ts.irrevocable && ts.depth == 0 {
		e.terminateRun(t, ts) // commits: irrevocable runs never revert
	}
}

// shouldSpeculate makes the adaptive speculation decision (§3.4) from the
// 64-bit success history: speculate when the success rate is at or above
// the threshold; below it, probe every RetryEvery suppressed attempts to
// notice program phase changes. All state read here is thread-private, so
// the decision is deterministic.
func (e *Engine) shouldSpeculate(ts *tstate, l int64) bool {
	// A statically Disjoint lock always speculates: its critical sections
	// have provably non-overlapping footprints, so speculation on it can
	// never fail validation (DESIGN.md §5e) and warm-up or probing would
	// only forfeit speculation wins. The noSpecNext progress guarantee is
	// enforced by the callers before they consult this decision, so the
	// prior cannot starve a reverted thread.
	if e.hint(l) == HintDisjoint {
		return true
	}
	var hist uint64
	var attempts *uint32
	if e.cfg.Spec.PerLockStats {
		m := &ts.specRow[l]
		hist = m.Hist
		attempts = &m.Attempts
	} else {
		hist = ts.threadHist
		attempts = &ts.threadAttempts
	}
	if detsync.SuccessRatePermille(hist) >= e.cfg.Spec.ThresholdPermille {
		return true
	}
	*attempts++
	return int(*attempts)%e.cfg.Spec.RetryEvery == 0
}

// recordOutcome shifts the run's outcome into the history of every lock it
// touched (or the thread history when per-lock statistics are disabled).
func (e *Engine) recordOutcome(ts *tstate, success bool) {
	if !e.cfg.Spec.PerLockStats {
		ts.threadHist = detsync.PushOutcome(ts.threadHist, success)
		return
	}
	for i := range ts.logLocks {
		m := &ts.specRow[ts.logLocks[i].lock]
		m.Hist = detsync.PushOutcome(m.Hist, success)
	}
}

// validate is conflict detection (§3.2): the run fails if any lock it
// recorded was acquired by another thread since the run began, or is
// currently held non-speculatively. Detection is purely on locks — never on
// data addresses — since lock-level detection plus versioned memory
// suffices for determinism and memory consistency.
//
// "Acquired since the run began" is decided with two deterministic tests:
// the paper's G_l comparison against BEGIN_i, and a commit-sequence
// comparison against the run's heap base, which is what guarantees the
// run's reads included every committed critical section of each logged
// lock in this runtime.
func (e *Engine) validate(ts *tstate) bool {
	if !e.validateAtomics(ts) {
		return false
	}
	for i := range ts.logLocks {
		ent := &ts.logLocks[i]
		l := ent.lock
		if e.hint(l) == HintDisjoint {
			// Statically disjoint footprints: no section guarded by l
			// reads or writes data another section of l touches, so
			// commits interleaved since BEGIN cannot have invalidated
			// this run through l. The lock-level checks below are coarser
			// than footprints and would still fire spuriously; skipping
			// them is what turns the static verdict into avoided reverts.
			// Soundness argument: DESIGN.md §5e.
			continue
		}
		st := &e.tbl.Locks[l]
		if st.Owner != 0 {
			st.ConflictReverts++
			return false // exclusively held by another thread
		}
		if ent.write && st.Readers != 0 {
			st.ConflictReverts++
			return false // our write conflicts with live readers
		}
		if !e.cfg.Spec.WriteAware && st.LastAcquireDLC > ts.begin {
			st.ConflictReverts++
			return false
		}
		if st.LastCommitSeq > ts.baseAtBegin {
			st.ConflictReverts++
			return false
		}
	}
	return true
}

// hint returns the static speculation prior for lock l; HintNone when no
// hint table was configured or l is out of its range.
func (e *Engine) hint(l int64) SpecHint {
	if l >= 0 && l < int64(len(e.cfg.Hints)) {
		return e.cfg.Hints[l]
	}
	return HintNone
}

// terminateRun ends the current speculation run: wait for the commit turn,
// validate (unless irrevocable — its conflicts were checked at upgrade and
// no other thread has committed since), then either commit the run or
// revert the thread. Returns true if the run committed.
func (e *Engine) terminateRun(t *dvm.Thread, ts *tstate) bool {
	if e.spec != nil {
		e.spec.Runs.Add(1)
	}
	e.waitCommitTurn(t)
	endValidate := phaseBegin(phaseValidate)
	valid := ts.irrevocable || e.validate(ts)
	endValidate()
	if valid {
		e.commitRunLocked(t, ts)
		e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
		return true
	}
	e.revertLocked(t, ts)
	e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
	return false
}

// commitRunLocked publishes a validated run: commit dirty pages, update the
// G_l map and commit sequences for every logged lock, convert any still-held
// speculative locks into conventionally held ones (runs terminating at a
// condition-variable operation hold their critical-section lock), and
// record success in the adaptive histories. Caller holds the turn.
func (e *Engine) commitRunLocked(t *dvm.Thread, ts *tstate) {
	e.publishAndRefresh(t, ts)
	my := e.arb.DLC(t.ID)
	seq := e.heap.Seq()
	for i := range ts.logLocks {
		ent := &ts.logLocks[i]
		st := &e.tbl.Locks[ent.lock]
		if ent.write {
			st.LastAcquireDLC = my
			if !e.cfg.Spec.WriteAware {
				st.LastCommitSeq = seq
			} else if slot := &ts.lockRow[ent.lock]; slot.wrote {
				st.LastCommitSeq = seq
				// heldSpec is a handful of nested locks at most; a linear
				// scan beats keeping a membership set per run.
				if !containsLock(ts.heldSpec, ent.lock) {
					slot.wrote = false
				}
			}
		}
		st.Acquires += int64(ent.count)
	}
	e.commitAtomicsLocked(ts)
	for _, l := range ts.heldSpec {
		e.tbl.Locks[l].Owner = int32(t.ID) + 1
		ts.heldConv = append(ts.heldConv, l)
	}
	for _, l := range ts.heldSpecRead {
		e.tbl.Locks[l].Readers++
		ts.heldConvRead = append(ts.heldConvRead, l)
	}
	e.recordOutcome(ts, true)
	if e.spec != nil {
		e.spec.Commits.Add(1)
		e.spec.CommittedCS.Add(int64(ts.runCS))
	}
	if e.tel != nil {
		e.tel.Span(t.ID, telemetry.SpanSpec, ts.begin, my, int64(ts.runCS))
	}
	if ts.irrevocable {
		e.irrevocableOwner = -1
	}
	e.rec.Sync(t.ID, trace.OpSpecCommit, int64(ts.runCS), my)
	e.resetSpec(ts)
}

// revertLocked reverts a failed run: restore the thread snapshot and
// discard the run's private pages, reinstating the pre-run dirty set (the
// thread's writes from before the run must survive its failure). The DLC is
// deliberately left unchanged (§3.3). Caller holds the turn.
//
//lazydet:nondeterministic the wall clock only measures the revert's cost for stats.Spec; the value never influences control flow
func (e *Engine) revertLocked(t *dvm.Thread, ts *tstate) {
	start := time.Now()
	discarded := ts.view.RevertTo(ts.dirtySnap)
	t.Restore(ts.snap)
	cost := time.Since(start).Nanoseconds()
	if e.audit != nil {
		// The thread must be exactly its BEGIN snapshot again, and the
		// dirty set exactly the pre-run dirty set.
		e.audit.AtRevert(t, ts.snap, ts.view.DirtyWords(), ts.dirtySnap.Words())
	}
	e.recordOutcome(ts, false)
	if e.spec != nil {
		e.spec.Reverts.Add(1)
		e.spec.AddRevertSample(cost, discarded)
	}
	if e.tel != nil {
		my := e.arb.DLC(t.ID)
		e.m.revertedWords.Add(int64(discarded))
		e.m.revertWords.Observe(int64(discarded))
		e.tel.Span(t.ID, telemetry.SpanSpec, ts.begin, my, int64(ts.runCS))
		e.tel.Span(t.ID, telemetry.SpanRevert, my, my, int64(discarded))
	}
	e.rec.Sync(t.ID, trace.OpSpecRevert, int64(ts.runCS), e.arb.DLC(t.ID))
	ts.noSpecNext = true
	// Discarded writes never became visible. Only logged locks can carry a
	// tag here: a run begins holding no lock (spec-log rule).
	for i := range ts.logLocks {
		ts.lockRow[ts.logLocks[i].lock].wrote = false
	}
	e.resetSpec(ts)
	ts.depth = len(ts.heldConv) + len(ts.heldConvRead) // always 0: runs begin outside critical sections
}

// containsLock reports whether lock l appears in held, a nesting-depth-sized
// slice of currently held speculative locks.
func containsLock(held []int64, l int64) bool {
	for _, h := range held {
		if h == l {
			return true
		}
	}
	return false
}

// resetSpec clears per-run state. Only the lock-row slots this run logged
// are touched, so nothing is hashed, scanned or allocated per run.
func (e *Engine) resetSpec(ts *tstate) {
	ts.spec = false
	ts.irrevocable = false
	ts.snap = nil
	ts.dirtySnap = nil
	for i := range ts.logLocks {
		ts.lockRow[ts.logLocks[i].lock].logPos = 0
	}
	ts.logLocks = ts.logLocks[:0]
	ts.atomLog = ts.atomLog[:0]
	clear(ts.atomCount)
	ts.heldSpec = ts.heldSpec[:0]
	ts.heldSpecRead = ts.heldSpecRead[:0]
	ts.runCS = 0
}

// AuditSpecLog checks the thread's dense lock row against its run log (the
// spec-log invariant): a set slot must point at the log entry of its own
// lock, and a WriteAware tag may sit only on a lock the thread holds or has
// logged. A stale position would send a lock's acquisitions to another
// lock's entry, so the lock would skip validation.
func (ts *tstate) AuditSpecLog() error {
	for l := range ts.lockRow {
		s := ts.lockRow[l]
		if s.logPos != 0 && (int(s.logPos) > len(ts.logLocks) || ts.logLocks[s.logPos-1].lock != int64(l)) {
			return fmt.Errorf("lock %d has row slot %d but is not at that place in a log of %d locks", l, s.logPos, len(ts.logLocks))
		}
		if s.wrote && s.logPos == 0 && !containsLock(ts.heldSpec, int64(l)) && !containsLock(ts.heldConv, int64(l)) {
			return fmt.Errorf("lock %d carries a write tag but is neither held nor logged", l)
		}
	}
	return nil
}

// enterIrrevocable handles a system call during speculation (§3.5).
// Outside a critical section the run simply terminates. Inside one, the run
// is upgraded to irrevocable: conflict detection happens now, and on
// success the thread blocks all other commits until the run terminates, so
// no conflict can arise for the now-irrevocable run. With the upgrade
// disabled (Figure 11's ablation) the run reverts instead and the syscall
// re-executes non-speculatively. Returns false if the thread was reverted.
func (e *Engine) enterIrrevocable(t *dvm.Thread, ts *tstate) bool {
	if ts.depth == 0 {
		return e.terminateRun(t, ts)
	}
	if !e.cfg.Spec.Irrevocable {
		if e.spec != nil {
			e.spec.Runs.Add(1)
		}
		e.waitCommitTurn(t)
		e.revertLocked(t, ts)
		e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
		return false
	}
	e.waitCommitTurn(t)
	if e.validate(ts) {
		ts.irrevocable = true
		e.irrevocableOwner = t.ID
		if e.spec != nil {
			e.spec.Upgrades.Add(1)
		}
		e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
		return true
	}
	if e.spec != nil {
		e.spec.Runs.Add(1)
	}
	e.revertLocked(t, ts)
	e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
	return false
}
