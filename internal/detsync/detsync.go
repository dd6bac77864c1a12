// Package detsync holds the deterministic synchronization objects shared by
// the eager (Consequence-style) and lazy (LazyDet) engines: the lock table
// with its G_l last-acquisition map and per-(lock, thread) speculation
// metadata, deterministic condition variables, and barriers.
//
// All mutable fields are read and written only while the mutating thread
// holds the deterministic turn (see internal/dlc), except each thread's own
// speculation-metadata slots, which only that thread touches. Consecutive
// turn holders synchronize through the arbiter's mutex, so plain fields are
// safe and every state transition is deterministic.
package detsync

import "math/bits"

// Lock is the per-lock state and metadata. The paper allocates this "when
// the lock is initialized" (§3.2); here the whole table is sized up front.
type Lock struct {
	// Owner is tid+1 while held non-speculatively in exclusive mode,
	// 0 when free.
	Owner int32
	// Readers counts non-speculative shared-mode holders. Mutated only
	// at turns, like Owner.
	Readers int32
	// ReleaseDLC is the logical time of the most recent release. A
	// deterministic acquire at logical time T succeeds only if the lock
	// is free and ReleaseDLC <= T; otherwise the release lies in the
	// acquirer's logical future and the acquire deterministically fails.
	ReleaseDLC int64
	// LastAcquireDLC is G_l: the DLC of the most recent acquisition,
	// updated at every non-speculative acquisition and at every
	// successful speculative commit (paper §3.2). Conflict detection
	// compares it against a run's BEGIN value.
	LastAcquireDLC int64
	// LastCommitSeq is the heap commit sequence after the most recent
	// commit by a thread that had acquired this lock. A speculation run
	// whose heap base predates it may have missed critical-section
	// writes guarded by the lock and must be reverted.
	LastCommitSeq int64
	// Acquires counts total acquisitions (Table 1 statistics).
	Acquires int64
	// ConflictReverts counts speculation reverts attributed to this lock:
	// validation runs whose first failing check was one of this lock's
	// conflict checks. Reverts caused by atomic-location validation are
	// not attributed to any lock. Mutated only at turns, so the count is
	// a deterministic function of the schedule.
	ConflictReverts int64
}

// SpecMeta is one thread's adaptive-speculation metadata for one lock
// (paper §3.4). The metadata is per-thread so speculation decisions stay
// deterministic (paper footnote 3).
type SpecMeta struct {
	// Hist is the 64-bit success history: bit i records whether one of the
	// thread's last 64 speculation runs involving this lock committed.
	Hist uint64
	// Attempts counts speculation decisions made while below the success
	// threshold, to implement retry-every-N probing.
	Attempts uint32
}

// Cond is a deterministic condition variable: a FIFO queue of parked
// threads. Enqueue and dequeue happen at turns, so the order is
// deterministic.
type Cond struct {
	Waiters []int
}

// Barrier is a deterministic barrier over all threads of the run.
type Barrier struct {
	Waiting []int
	// ReleaseSeq is the heap sequence at the releasing arrival's turn;
	// woken threads re-base their views on exactly this sequence.
	ReleaseSeq int64
}

// Table bundles the synchronization objects of one run.
type Table struct {
	NThreads int
	Locks    []Lock
	Conds    []Cond
	Barriers []Barrier
	// Atomics maps an atomically accessed heap address to the heap
	// commit sequence of its most recent committed update — the
	// location-level analogue of each lock's LastCommitSeq, used by the
	// speculative-atomics extension (paper §7). Mutated only at turns.
	Atomics map[int64]int64
	// SpawnSeq records, per thread, the heap sequence published at the
	// turn that spawned it; the thread re-bases its view there on resume.
	SpawnSeq []int64
	// spec holds one SpecMeta row per thread, indexed by lock: thread-major,
	// so the only thread that touches a row owns every cache line of it.
	spec [][]SpecMeta
	wake []chan struct{}
}

// specRowGap is the padding between two threads' SpecMeta rows: 4 × 16 bytes,
// one 64-byte cache line.
const specRowGap = 4

// NewTable allocates nlocks locks, nconds condition variables and nbarriers
// barriers for nthreads threads. If specMeta is true, per-(thread, lock)
// speculation metadata is allocated with all-success histories, so
// speculation starts optimistically enabled.
func NewTable(nthreads, nlocks, nconds, nbarriers int, specMeta bool) *Table {
	t := &Table{
		NThreads: nthreads,
		Locks:    make([]Lock, nlocks),
		Conds:    make([]Cond, nconds),
		Barriers: make([]Barrier, nbarriers),
		Atomics:  make(map[int64]int64),
		SpawnSeq: make([]int64, nthreads),
		wake:     make([]chan struct{}, nthreads),
	}
	for i := range t.wake {
		t.wake[i] = make(chan struct{}, 1)
	}
	if specMeta {
		// One backing array, not one per thread: runs with thousands of
		// threads would otherwise pay an allocation per thread here. Rows
		// are a cache line apart, so no two threads' rows share one.
		stride := nlocks + specRowGap
		meta := make([]SpecMeta, nthreads*stride)
		for i := range meta {
			meta[i].Hist = ^uint64(0)
		}
		t.spec = make([][]SpecMeta, nthreads)
		for tid := range t.spec {
			t.spec[tid] = meta[tid*stride : tid*stride+nlocks : tid*stride+nlocks]
		}
	}
	return t
}

// SpecRow returns thread tid's speculation metadata, indexed by lock ID; nil
// when the table was built without speculation metadata. Only thread tid
// may read or write the row while the run is live.
func (t *Table) SpecRow(tid int) []SpecMeta {
	if t.spec == nil {
		return nil
	}
	return t.spec[tid]
}

// Wake unblocks thread tid (which must be blocked, or about to block, in
// WaitWake). Called by a turn holder after Unpark.
func (t *Table) Wake(tid int) { t.wake[tid] <- struct{}{} }

// WaitWake blocks the calling thread until another thread wakes it.
func (t *Table) WaitWake(tid int) { <-t.wake[tid] }

// SuccessRatePermille returns the success rate of history word h in
// thousandths (popcount * 1000 / 64).
func SuccessRatePermille(h uint64) int {
	return bits.OnesCount64(h) * 1000 / 64
}

// PushOutcome shifts outcome (1 = success) into history word h.
func PushOutcome(h uint64, success bool) uint64 {
	h <<= 1
	if success {
		h |= 1
	}
	return h
}
