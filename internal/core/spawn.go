package core

import (
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/trace"
)

// This file implements deterministic thread creation and joining — the
// pthread_create / pthread_join surface every PARSEC/SPLASH-2 program uses
// around its parallel phase.
//
//   - A suspended thread is registered as parked, so it does not hold the
//     global clock minimum at zero.
//   - Spawn happens at the spawner's turn: the spawner publishes its memory
//     (create has release semantics), the child's clock is derived from the
//     spawner's, and the child is released. All deterministic.
//   - Join retries at the joiner's turns until the target has exited.
//     Exits become visible exactly at the exiting thread's final commit
//     turn (the arbiter transitions Turn→Exited in place), so the retry
//     count — and with it the joiner's clock — is deterministic. The join
//     then refreshes the joiner's view (join has acquire semantics).

// ThreadResume refreshes a freshly spawned thread's memory view to exactly
// the state its spawner published: the acquire half of pthread_create's
// happens-before edge, pinned to the spawn turn's sequence so the resume is
// deterministic.
func (e *Engine) ThreadResume(t *dvm.Thread) {
	if v := e.ts(t).view; v != nil {
		v.UpdateTo(e.tbl.SpawnSeq[t.ID])
	}
}

// Spawn implements dvm.Engine.
func (e *Engine) Spawn(t *dvm.Thread, target int) {
	ts := e.ts(t)
	if ts.spec {
		// Creating a thread is inter-thread communication: terminate
		// the run (commit if possible, revert otherwise).
		if !e.terminateRun(t, ts) {
			return // reverted; the spawn re-executes after restart
		}
	}
	e.waitCommitTurn(t)
	// Release semantics: the child re-bases on exactly this state.
	e.publishAndRefresh(t, ts)
	e.tbl.SpawnSeq[target] = e.seq()
	my := e.arb.DLC(t.ID)
	e.arb.Unpark(target, my+1)
	t.Group().StartThread(target)
	e.rec.Sync(t.ID, trace.OpSpawn, int64(target), my)
	e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
}

// Join implements dvm.Engine.
func (e *Engine) Join(t *dvm.Thread, target int) {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return
		}
	}
	backoff := e.cfg.Quantum
	for {
		e.waitCommitTurn(t)
		if e.arb.Status(target) == dlc.StatusExited {
			// Acquire semantics: the target's final commit is already
			// published; refresh our window to include it.
			e.publishAndRefresh(t, ts)
			e.rec.Sync(t.ID, trace.OpJoin, int64(target), e.arb.DLC(t.ID))
			e.arb.ReleaseTurn(t.ID, e.cfg.SyncCost)
			return
		}
		e.arb.ReleaseTurn(t.ID, backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}
