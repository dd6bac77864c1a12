package vheap

import "testing"

// Directed tests of the deferred-publication (commit staging) machinery:
// delta staging, same-owner chain merging, foreign flushes, and the
// interaction with speculation snapshots — the regression surface for
// same-owner publication elision.

// TestStagePublishDefersPhysicalCommit: a staged publication reserves a
// sequence without touching the version chains; the physical commit happens
// at the first observation (here a committed read) and carries exactly the
// staged values.
func TestStagePublishDefersPhysicalCommit(t *testing.T) {
	h := New(256)
	v := h.NewView()
	v.Store(3, 30)
	seq, staged := v.StagePublish()
	if !staged || seq != 1 {
		t.Fatalf("StagePublish = (%d, %v), want (1, true)", seq, staged)
	}
	if got := h.Stats().Commits; got != 0 {
		t.Fatalf("physical commits after staging = %d, want 0", got)
	}
	if v.Unpublished() {
		t.Fatal("view still unpublished after StagePublish")
	}
	// The owner keeps reading its deferred value through the retained frame.
	if got := v.Load(3); got != 30 {
		t.Fatalf("owner load = %d, want 30", got)
	}
	// A committed read is an observation: the stage is applied first.
	if got := h.ReadCommitted(3); got != 30 {
		t.Fatalf("ReadCommitted = %d, want 30", got)
	}
	if got := h.Stats().Commits; got != 1 {
		t.Fatalf("physical commits after observation = %d, want 1", got)
	}
	if !v.StageFlushed() {
		t.Fatal("owner's stage not marked flushed after a foreign observation")
	}
}

// TestStageChainMergesDeltas: consecutive staged publications merge into one
// stage per view — later sections stage only their delta, a word rewritten
// in a later section overwrites its staged value, and the whole chain
// reaches the chains as one physical commit with last-writer-wins contents.
func TestStageChainMergesDeltas(t *testing.T) {
	h := New(256)
	v := h.NewView()
	v.Store(1, 10)
	v.Store(2, 20)
	if _, staged := v.StagePublish(); !staged {
		t.Fatal("first StagePublish did not stage")
	}
	v.Store(2, 22) // rewrite a staged word
	v.Store(4, 40) // and a fresh one
	if _, staged := v.StagePublish(); !staged {
		t.Fatal("second StagePublish did not stage")
	}
	if err := v.AuditDeferred(); err != nil {
		t.Fatalf("AuditDeferred after chain: %v", err)
	}
	// One merged stage, applied once.
	if got := h.ReadCommitted(2); got != 22 {
		t.Fatalf("ReadCommitted(2) = %d, want 22 (last writer)", got)
	}
	for addr, want := range map[int64]int64{1: 10, 4: 40} {
		if got := h.ReadCommitted(addr); got != want {
			t.Fatalf("ReadCommitted(%d) = %d, want %d", addr, got, want)
		}
	}
	if got := h.Stats().Commits; got != 1 {
		t.Fatalf("physical commits for a 2-section chain = %d, want 1", got)
	}
}

// TestStageKeepsFirstTwin: a word staged at value A and later rewritten back
// to its pre-stage contents must still publish — silence is judged against
// the twin of the word's first staging, not the latest frame snapshot.
func TestStageKeepsFirstTwin(t *testing.T) {
	h := New(256)
	h.SetInitial(5, 7)
	v := h.NewView()
	v.Store(5, 50)
	if _, staged := v.StagePublish(); !staged {
		t.Fatal("first StagePublish did not stage")
	}
	v.Store(5, 7) // back to the pre-stage value
	if _, staged := v.StagePublish(); !staged {
		t.Fatal("second StagePublish did not stage")
	}
	if got := h.ReadCommitted(5); got != 7 {
		t.Fatalf("ReadCommitted(5) = %d, want 7", got)
	}
	// The chain must have physically committed: the intermediate value 50
	// was reserved and traced, so the final publication cannot be elided as
	// silent even though the net change is zero.
	if got := h.Stats().Commits; got != 1 {
		t.Fatalf("physical commits = %d, want 1", got)
	}
}

// TestCommitAppliesOwnStageFirst: the owner's physical Commit applies its
// outstanding stage at the reserved sequence, then commits the delta at a
// fresh sequence — both publications reach the chains in order.
func TestCommitAppliesOwnStageFirst(t *testing.T) {
	h := New(256)
	v := h.NewView()
	v.Store(1, 10)
	seq1, staged := v.StagePublish()
	if !staged {
		t.Fatal("StagePublish did not stage")
	}
	v.Store(2, 20)
	seq2, _ := v.Commit()
	if seq2 <= seq1 {
		t.Fatalf("commit seq %d not above reserved stage seq %d", seq2, seq1)
	}
	if got := h.Stats().Commits; got != 2 {
		t.Fatalf("physical commits = %d, want 2 (stage + delta)", got)
	}
	for addr, want := range map[int64]int64{1: 10, 2: 20} {
		if got := h.ReadCommitted(addr); got != want {
			t.Fatalf("ReadCommitted(%d) = %d, want %d", addr, got, want)
		}
	}
}

// TestForeignCommitFlushesStage: another view's commit applies the owner's
// outstanding stage first, so the head never overtakes a reserved sequence
// and the owner observes the miss at its next turn.
func TestForeignCommitFlushesStage(t *testing.T) {
	h := New(256)
	a := h.NewView()
	b := h.NewView()
	a.Store(1, 10)
	if _, staged := a.StagePublish(); !staged {
		t.Fatal("StagePublish did not stage")
	}
	b.Update()
	if got := b.Load(1); got != 10 {
		t.Fatalf("peer load after update = %d, want 10 (stage applied by re-base)", got)
	}
	b.Store(2, 20)
	b.Commit()
	if !a.StageFlushed() {
		t.Fatal("owner's stage not marked flushed after foreign activity")
	}
	// The owner re-bases over the flushed stage: its retained frame must
	// keep serving the already-published value, now as a silent store.
	a.RefreshDirty()
	if got := a.Load(1); got != 10 {
		t.Fatalf("owner load after rebase = %d, want 10", got)
	}
	if got := a.Load(2); got != 20 {
		t.Fatalf("owner load after rebase = %d, want 20 (peer commit visible)", got)
	}
	// Fully published and nothing written since: the retained set may drop.
	if a.Unpublished() {
		t.Fatal("owner unpublished after flush with no new writes")
	}
	a.DropClean()
	if got := a.Load(1); got != 10 {
		t.Fatalf("owner load after DropClean = %d, want 10", got)
	}
}

// TestRevertPreservesDeferredState is the speculation-interaction regression
// test: a speculative revert of a thread holding deferred (staged but not
// physically committed) state must restore the retained frames exactly, so
// the reserved publication still reaches the chains with the promised
// values. The deferred-publish invariant (AuditDeferred) must hold at every
// step.
func TestRevertPreservesDeferredState(t *testing.T) {
	h := New(256)
	h.SetInitial(2, 2)
	v := h.NewView()
	v.Store(1, 10)
	v.Store(2, 20)
	if _, staged := v.StagePublish(); !staged {
		t.Fatal("StagePublish did not stage")
	}
	if err := v.AuditDeferred(); err != nil {
		t.Fatalf("AuditDeferred after staging: %v", err)
	}

	// A speculation run begins: snapshot, speculative writes over both a
	// staged word and a fresh one, then the run fails and reverts.
	snap := v.SnapshotDirty()
	v.Store(1, 111)
	v.Store(3, 333)
	// Rewritten staged words are exempt from the audit — the owner's new
	// value legitimately shadows the staged one until revert or publish.
	if err := v.AuditDeferred(); err != nil {
		t.Fatalf("AuditDeferred mid-speculation: %v", err)
	}
	if n := v.RevertTo(snap); n == 0 {
		t.Fatal("revert discarded no speculative words")
	}
	if err := v.AuditDeferred(); err != nil {
		t.Fatalf("AuditDeferred after revert: %v", err)
	}
	if got := v.Load(1); got != 10 {
		t.Fatalf("owner load after revert = %d, want 10", got)
	}
	if v.Unpublished() {
		t.Fatal("revert resurrected the unpublished flag")
	}

	// The deferred publication must reach the chains with the pre-revert
	// values, and the speculative writes must not.
	if got := h.ReadCommitted(1); got != 10 {
		t.Fatalf("ReadCommitted(1) = %d, want 10", got)
	}
	if got := h.ReadCommitted(2); got != 20 {
		t.Fatalf("ReadCommitted(2) = %d, want 20", got)
	}
	if got := h.ReadCommitted(3); got != 0 {
		t.Fatalf("ReadCommitted(3) = %d, want 0 (speculative write reverted)", got)
	}
}

// TestStagePublishEmptyDelta: a release with nothing written since the last
// publication event reserves nothing — matching the eager path, which skips
// the commit on an empty dirty set.
func TestStagePublishEmptyDelta(t *testing.T) {
	h := New(256)
	v := h.NewView()
	v.Store(1, 10)
	if _, staged := v.StagePublish(); !staged {
		t.Fatal("first StagePublish did not stage")
	}
	seq, staged := v.StagePublish()
	if staged {
		t.Fatalf("empty-delta StagePublish staged at seq %d", seq)
	}
	if got := h.ReadCommitted(1); got != 10 {
		t.Fatalf("ReadCommitted(1) = %d, want 10", got)
	}
}

// TestFlushStagesAllocFree pins the flush path's allocation budget: once the
// pools are warm, staging two views' publications and flushing both stages
// in one flushStages call allocates nothing.
func TestFlushStagesAllocFree(t *testing.T) {
	h := New(256, WithPageWords(32))
	a, b := h.NewView(), h.NewView()
	// stageOnly is StagePublish without its foreign flush, so both stages
	// stay outstanding until the flush under test.
	stageOnly := func(v *View) {
		seq := h.seq.Load() + 1
		v.stageDirty(seq)
		h.seq.Store(seq)
		v.unstaged = false
		v.rebaseDirty(seq)
	}
	val := int64(0)
	cycle := func() {
		val++
		a.Store(1, val)
		b.Store(100, val)
		stageOnly(a)
		stageOnly(b)
		if h.nstaged.Load() != 2 {
			t.Fatalf("%d outstanding stages before the flush, want 2", h.nstaged.Load())
		}
		h.flushStages(nil, flushAll)
	}
	for i := 0; i < 4; i++ {
		cycle() // warm the frame and page pools
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a two-stage flush allocates %.1f times, want 0", n)
	}
	if got := h.ReadCommitted(100); got != val {
		t.Fatalf("ReadCommitted(100) = %d, want %d", got, val)
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
}
