package core

import (
	"lazydet/internal/detsync"
	"lazydet/internal/dvm"
	"lazydet/internal/telemetry"
)

// This file implements same-owner publication elision: the engine half of
// deferred publication (the heap half is internal/vheap/stage.go).
//
// On a critical-section release the eager protocol commits the thread's
// writes and re-bases its view — two page walks per release, even when the
// same thread immediately reacquires the lock and no other thread ever looks
// at the state in between. Under elision the release only *reserves* the
// commit sequence and stages the dirty words; consecutive same-owner
// sections merge into one accumulated stage, and the physical commit happens
// at the first point where another thread can actually observe the state: a
// foreign thread's own publication point (which flushes outstanding stages),
// or one of this thread's cross-thread visibility points — barrier, condition
// variable, join, spawn, atomic, irrevocable upgrade, thread exit — where the
// engine force-publishes.
//
// The trace is publication-for-publication identical to the eager path: a
// staged release reserves exactly the sequence an eager commit would have
// used and records the same trace Commit event, so schedules, TraceSig and
// HeapHash are bit-identical between elision and -eagerpublish (the
// differential oracle lazydet-fuzz cross-checks). Soundness argument:
// DESIGN.md's elision section.
//
// The elide/force decision is adaptive per lock (ElideHist, shared across
// threads: a miss means the lock's state was demanded cross-thread, which
// predicts misses for every owner), primed by the PR 9 static footprint
// hints: Disjoint locks always elide.
//
// Everything else is earned through VIRTUAL PROBES, which cost nothing. A
// stage survives exactly until any other publication advances the heap
// sequence (every Commit and StagePublish flushes all foreign stages first),
// so whether a deferred publication *would have* survived from one release
// to the owner's next is observable without deferring anything: publish
// eagerly, snapshot the heap sequence, and compare at the next publication
// point. Histories therefore accumulate at full release rate while the
// machinery — stage deep copies, retained frames, re-base rebuilds — stays
// completely off; real staging engages only once the recent history predicts
// survival, and an engaged chain keeps itself alive on its own evidence.
// Workloads whose stages could never survive (dynamically addressed lock
// sets under dense cross-thread commit traffic, speculation phases whose run
// commits flush everything) pay literally zero elision overhead.

// elisionOn reports whether the engine may defer publications at all:
// elision is a versioned-memory optimization (weak engines publish nothing),
// disabled by the -eagerpublish differential oracle.
func (e *Engine) elisionOn() bool { return !e.cfg.EagerPublish && e.strong() }

// shouldElide decides at a release turn whether lock l's publication may be
// deferred: only when the static hint or the recent survival history —
// per-lock, or workload-wide for locks too cold to predict anything —
// says a stage would survive to this thread's next release. There is no
// probing arm: virtual probes (releasePublish) feed the histories for free
// on every eager release, so a false here costs nothing and a true is backed
// by evidence. All state read and written here mutates only at turns, so the
// decision — and with it the gated commit.elided counter — is a
// deterministic function of the schedule.
func (e *Engine) shouldElide(ts *tstate, l int64) bool {
	if !e.elisionOn() {
		return false
	}
	// The retained dirty set — and with it the per-release stage merge and
	// the speculation-snapshot cost — grows with the elision chain, so past
	// the limit the release publishes eagerly and resets the accumulation.
	if ts.elideChain >= e.cfg.ElideChainLimit {
		return false
	}
	// A statically Disjoint lock always elides: no other section guarded by
	// it touches the data this section wrote, so deferring the publication
	// cannot cost a peer anything (DESIGN.md §5e).
	if e.hint(l) == HintDisjoint {
		return true
	}
	if detsync.RecentRatePermille(e.tbl.Locks[l].ElideHist, elideRecentWindow) >= elideEngagePermille {
		return true
	}
	return detsync.RecentRatePermille(e.elideGlobal, elideRecentWindow) >= elideEngagePermille
}

// Resolution points for a pending elided publication (real or virtual). A
// deferral pays exactly when its stage survives to the owner's next release:
// the sections merge there into one physical commit. Surviving only to an
// intermediate refresh point (a lock acquisition between the two sections of
// a would-be chain) proves nothing yet, and surviving to a settling
// publication proves the deferral bought nothing — the stage flushes as its
// own commit, exactly what eager publication would have done.
const (
	elideAtRefresh = iota // ordinary refresh: no outcome unless already flushed
	elideAtSettle         // settling/eager publication: unflushed is still a miss
	elideAtChain          // next release: unflushed means a merge happens here — a hit
)

// elideRecentWindow is how many of the newest survival outcomes the
// engagement decision looks at. Over the full 64-bit history a zero-seeded
// lock would need dozens of consecutive hits before engaging — longer than
// most reacquire phases last. A 16-outcome window engages after 8 hits,
// early enough to capture most of a phase, and disengages within a handful
// of misses once a phase ends.
const elideRecentWindow = 16

// elideEngagePermille is the recent survival rate above which real staging
// engages. Deliberately far below Spec.ThresholdPermille: a speculation miss
// costs a full revert, so speculation demands 850‰, but an elision miss
// wastes only a delta copy plus some retained-frame bookkeeping while a hit
// saves an entire physical commit and refresh — break-even sits well under
// one hit in two. 500‰ also keeps phase-structured workloads engaged:
// a thread whose bursts span k publications scores k-1 hits and one
// boundary miss per burst, a rate of (k-1)/k, which a demanding threshold
// would reject for every k < 8 even though eliding there saves most of the
// commits.
const elideEngagePermille = 500

// resolveElide folds the outcome of the thread's pending elided publication
// into its lock's shared history. A flushed stage is always a miss: the
// state was either demanded cross-thread or committed by the owner's own
// eager publication before any chain formed. An unflushed stage is a hit
// only at a staging release (the merge that saves a physical commit is
// happening right now); at a settling publication it is a miss (no commit
// was saved), and at an ordinary refresh it stays pending — this section's
// release may yet extend the chain. Every publication-point helper below
// resolves before it publishes, settles or stages, so the flushed flag
// still reflects the *prior* flush when read. Caller holds the turn.
func (e *Engine) resolveElide(ts *tstate, at int) {
	if !ts.elidePending {
		return
	}
	flushed := ts.view.StageFlushed()
	if at == elideAtRefresh && !flushed {
		return
	}
	ts.elidePending = false
	hit := !flushed && at == elideAtChain
	st := &e.tbl.Locks[ts.elideLock]
	st.ElideHist = detsync.PushOutcome(st.ElideHist, hit)
	e.elideGlobal = detsync.PushOutcome(e.elideGlobal, hit)
	if flushed && !ts.view.Unpublished() {
		// A flush already applied the deferred state and nothing was
		// written since, so the retained dirty set is fully published:
		// drop it now rather than re-staging or re-committing long-silent
		// frames on every later publication.
		ts.view.DropClean()
		ts.elideChain = 0
	}
}

// resolveVirtual folds the outcome of the thread's pending virtual probe
// (started at an eager release) into the histories: a hit when the heap
// sequence has not moved since — no publication by anyone, so a real stage
// would have survived intact to merge at this release — and a miss when the
// sequence advanced (any foreign commit or staging would have flushed it;
// the thread's own intermediate publication would have settled it) or when
// the probe reaches a settling point, where even a surviving stage buys
// nothing. Refresh points leave the probe pending: the thread's own publish
// there advances the sequence, turning the eventual outcome into a miss by
// itself. Caller holds the turn.
func (e *Engine) resolveVirtual(ts *tstate, at int) {
	if !ts.virtPending {
		return
	}
	if at == elideAtRefresh {
		return
	}
	ts.virtPending = false
	hit := at == elideAtChain && e.heap.Seq() == ts.virtSeq
	st := &e.tbl.Locks[ts.virtLock]
	st.ElideHist = detsync.PushOutcome(st.ElideHist, hit)
	e.elideGlobal = detsync.PushOutcome(e.elideGlobal, hit)
}

// elidePublish defers the publication at lock l's release: the dirty words
// are staged at a reserved commit sequence and the view is re-based with the
// dirty set retained. The trace records the same Commit event, at the same
// sequence and clock, that the eager path would have recorded. Caller holds
// the turn.
func (e *Engine) elidePublish(t *dvm.Thread, ts *tstate, l int64) {
	defer phaseBegin(phaseCommit)()
	v := ts.view
	if e.audit != nil && v.DirtyPages() != 0 {
		e.audit.AtPublish(t.ID, v)
	}
	seq, staged := v.StagePublish()
	if !staged {
		return
	}
	e.countPublish(v)
	my := e.arb.DLC(t.ID)
	e.rec.Commit(t.ID, my, seq)
	if e.tel != nil {
		e.m.elided.Add(1)
		e.tel.Span(t.ID, telemetry.SpanCommit, my, my, seq)
	}
	if e.audit != nil {
		e.audit.AtCommit(t.ID, seq)
		e.audit.AtDeferred(t.ID, v)
	}
	ts.elidePending = true
	ts.elideLock = l
	ts.elideChain++
}

// releasePublish is the publication at a critical-section release: elided
// when the policy allows, eager otherwise. The thread's pending outcomes —
// real stage or virtual probe — resolve first, at their hit point, so the
// histories the decision reads are current through this very release. An
// unflushed pending stage extends its chain directly (the merge happening
// right now is the payoff the histories only predict); an eager release
// starts a cost-free virtual probe in its place. Either way the view ends
// re-based on the state the release must observe. Caller holds the turn.
func (e *Engine) releasePublish(t *dvm.Thread, ts *tstate, l int64) {
	chained := ts.elidePending && !ts.view.StageFlushed() &&
		ts.elideChain < e.cfg.ElideChainLimit
	e.resolveElide(ts, elideAtChain)
	e.resolveVirtual(ts, elideAtChain)
	if chained || e.shouldElide(ts, l) {
		e.elidePublish(t, ts, l)
		return
	}
	e.publishRefreshLazy(t, ts)
	if e.elisionOn() {
		ts.virtPending = true
		ts.virtLock = l
		ts.virtSeq = e.heap.Seq()
	}
}

// publishRefreshLazy publishes unpublished writes eagerly and re-bases the
// window while keeping any deferred state outstanding — the elision-aware
// analogue of publishAndRefresh for synchronization points that need fresh
// state but are not cross-thread visibility points (lock acquisitions, the
// read half of an eager atomic). Under -eagerpublish (and on flat memory) it
// is publishAndRefresh exactly. Caller holds the turn.
func (e *Engine) publishRefreshLazy(t *dvm.Thread, ts *tstate) {
	if !e.elisionOn() {
		e.publishAndRefresh(t, ts)
		return
	}
	e.resolveElide(ts, elideAtRefresh)
	if e.publish(t, ts) {
		ts.elideChain = 0
	}
	ts.view.RefreshDirty()
}

// forcePublish makes every deferred publication real at a cross-thread
// visibility point: resolve the pending elision outcome, commit unpublished
// writes eagerly (which first applies the thread's own stage at its reserved
// sequence, then commits the delta), settle every remaining outstanding
// stage, and release the now fully published dirty set. The window's base is
// not moved; callers that need fresh state refresh afterwards, and callers
// that park (condition variables, barriers) are re-based by their
// deterministic wake path — the same contract the eager protocol imposes.
// Caller holds the turn.
func (e *Engine) forcePublish(t *dvm.Thread, ts *tstate) {
	if !e.elisionOn() {
		e.publish(t, ts)
		return
	}
	e.resolveElide(ts, elideAtSettle)
	e.resolveVirtual(ts, elideAtSettle)
	e.publish(t, ts)
	ts.view.SettleDeferred()
	ts.view.DropClean()
	ts.elideChain = 0
}

// forcePublishRefresh is forcePublish plus a re-base on the newest published
// state — the cross-thread-visibility analogue of publishAndRefresh
// (condvar signals, spawns, joins, eager atomics). Caller holds the turn.
func (e *Engine) forcePublishRefresh(t *dvm.Thread, ts *tstate) {
	e.forcePublish(t, ts)
	if ts.view != nil {
		ts.view.Update()
	}
}
