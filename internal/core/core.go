// Package core implements the deterministic multithreading runtime that is
// this repository's reproduction of the paper's systems:
//
//   - ModeStrong without speculation is Consequence (Merrifield et al.,
//     EuroSys'15): eager strong determinism — every synchronization
//     operation waits for the deterministic turn and commits/updates the
//     thread's isolated memory view.
//   - ModeWeak is TotalOrder-Weak: the same eager DLC total order, but no
//     memory isolation (Kendo-style weak determinism).
//   - ModeWeakNondet is TotalOrder-Weak-Nondet: synchronization still
//     funnels through one global serialization point, but ordered
//     nondeterministically — the paper's simulation of a "perfect logical
//     clock".
//   - ModeStrong with Config.Speculation is LazyDet, the paper's
//     contribution: speculative order elision with lock-level conflict
//     detection, adaptive per-lock speculation statistics, coarsening
//     across critical sections, revert/restart, and irrevocable upgrade
//     for system calls (paper §3). The speculation paths live in spec.go.
//
// The paper derives its comparison systems from the LazyDet code base
// (§5.3); this package mirrors that by hosting all deterministic engines
// behind one Config.
package core

import (
	"time"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/invariant"
	"lazydet/internal/shmem"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
	"lazydet/internal/vheap"
)

// Mode selects the determinism regime.
type Mode int

const (
	// ModeStrong isolates threads in versioned memory and determinizes
	// both synchronization order and every load's value (strong
	// determinism). This is Consequence, and the substrate LazyDet
	// speculates on.
	ModeStrong Mode = iota
	// ModeWeak orders synchronization deterministically but shares memory
	// directly: deterministic only for race-free programs (Kendo-style
	// weak determinism).
	ModeWeak
	// ModeWeakNondet totally orders synchronization through a global
	// mutex, nondeterministically. No determinism guarantee; it models
	// the cost of total ordering alone.
	ModeWeakNondet
)

// String returns the evaluation's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeStrong:
		return "strong"
	case ModeWeak:
		return "weak"
	case ModeWeakNondet:
		return "weak-nondet"
	}
	return "unknown"
}

// SpecConfig tunes the LazyDet speculation engine. The defaults are the
// paper's parameters (§3.4), tuned there on the hash-table microbenchmark
// and reused unchanged for all workloads.
type SpecConfig struct {
	// Coarsening allows one speculation run to span multiple critical
	// sections, up to MaxRunCS. Disabling it (Figure 11's
	// LAZYDET-NoCoarsening) limits runs to one critical section.
	Coarsening bool
	// MaxRunCS bounds the critical sections per run when coarsening.
	MaxRunCS int
	// Irrevocable enables upgrading a run to irrevocable status when a
	// system call is encountered (paper §3.5). When disabled (Figure 11's
	// LAZYDET-NoIrrevocable), a system call inside a speculative critical
	// section reverts the run.
	Irrevocable bool
	// PerLockStats keeps the 64-bit success history per (lock, thread).
	// When disabled (Figure 11's LAZYDET-NoPerLockStats), one history per
	// thread is used for all locks.
	PerLockStats bool
	// ThresholdPermille is the success-rate threshold (out of 1000)
	// required to begin speculating; the paper uses 85 % = 850.
	ThresholdPermille int
	// RetryEvery forces a probe speculation every N suppressed attempts,
	// to notice program phase changes; the paper uses 20.
	RetryEvery int
	// SpeculativeAtomics executes atomic read-modify-writes inside
	// speculation runs, detecting conflicts on the accessed locations —
	// the extension the paper's §7 proposes. When disabled, an atomic
	// terminates the run and executes eagerly.
	SpeculativeAtomics bool
	// WriteAware refines conflict detection in the direction of the
	// dependence-aware schemes the paper's §6.2 points to: a committed
	// critical section invalidates concurrent runs that logged its lock
	// only if it actually wrote under that lock, so read-only critical
	// sections never conflict with each other. Off by default — the
	// paper's G_l scheme treats every acquisition as a conflict source.
	WriteAware bool
}

// DefaultSpecConfig returns the speculation parameters used by every
// experiment. Like the paper (§3.4), the success threshold and retry period
// are 85 % and 20, and the parameter set was tuned once on the hash-table
// microbenchmark and then applied to all workloads: on this runtime a
// coarsening limit of 8 critical sections maximizes hash-table throughput
// (longer runs enlarge the lock set, and with it the conflict probability,
// faster than they amortize commits).
func DefaultSpecConfig() SpecConfig {
	return SpecConfig{
		Coarsening:         true,
		MaxRunCS:           8,
		Irrevocable:        true,
		PerLockStats:       true,
		ThresholdPermille:  850,
		RetryEvery:         20,
		SpeculativeAtomics: true,
	}
}

// Config configures a deterministic engine.
type Config struct {
	// Mode selects the determinism regime.
	Mode Mode
	// Speculation enables LazyDet's lazy determinism. Requires
	// ModeStrong: speculation depends on the isolation that strong
	// determinism provides (paper §2.3).
	Speculation bool
	// Spec tunes speculation; zero value means DefaultSpecConfig.
	Spec SpecConfig
	// Quantum is the DLC increment charged when a deterministic
	// acquisition attempt fails and the thread re-queues for the turn.
	Quantum int64
	// SyncCost is the DLC increment charged for a completed
	// synchronization operation.
	SyncCost int64
	// CheckInvariants enables the runtime audit layer
	// (internal/invariant): at every turn grant and every commit/revert
	// the engine asserts turn-holder uniqueness, heap commit monotonicity
	// and chain integrity, lock-table consistency, and snapshot
	// round-trip exactness. Off by default; when off the only cost is a
	// nil pointer compare at each audit point.
	CheckInvariants bool
	// Hints carries per-lock speculation priors indexed by lock ID — the
	// progcheck footprint analysis verdicts, lowered by the harness. Nil,
	// or any lock beyond the slice, means HintNone. Only meaningful with
	// Speculation; the hinted policy must be behavior-equivalent to the
	// unhinted one (identical final memory and Validate outcomes), which
	// lazydet-fuzz checks differentially.
	Hints []SpecHint
}

// SpecHint is a static prior for the per-lock speculation policy, computed
// by internal/progcheck's critical-section footprint analysis. The zero
// value means "no static fact" and leaves the adaptive policy (§3.4) in
// sole control.
type SpecHint uint8

const (
	// HintNone: no static verdict; runtime adaptation decides alone.
	HintNone SpecHint = iota
	// HintDisjoint: every pair of critical sections guarded by this lock
	// has a provably non-overlapping data footprint, so speculation on it
	// can never fail validation. The engine always speculates on the lock
	// and skips its conflict checks at commit (DESIGN.md §5e).
	HintDisjoint
	// HintConflicting: two sections provably write-overlap on a constant
	// address, so speculation is wasted work. The engine seeds the lock's
	// success histories at all-failure (conventional until RetryEvery
	// probing earns speculation back) instead of the optimistic
	// all-success default.
	HintConflicting
	// HintCommutative: sections overlap only through commuting operations
	// (atomic adds, identical constant stores) — candidates for future
	// phase reconciliation (ROADMAP's ddtxn item). The runtime currently
	// treats it exactly like HintNone, since the engine has no
	// deterministic merge path yet.
	HintCommutative
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Quantum == 0 {
		c.Quantum = 4
	}
	if c.SyncCost == 0 {
		c.SyncCost = 2
	}
	if c.Spec == (SpecConfig{}) {
		c.Spec = DefaultSpecConfig()
	}
	if c.Spec.MaxRunCS <= 0 || !c.Spec.Coarsening {
		if c.Spec.Coarsening {
			c.Spec.MaxRunCS = DefaultSpecConfig().MaxRunCS
		} else {
			c.Spec.MaxRunCS = 1
		}
	}
	if c.Spec.ThresholdPermille == 0 {
		c.Spec.ThresholdPermille = 850
	}
	if c.Spec.RetryEvery == 0 {
		c.Spec.RetryEvery = 20
	}
	return c
}

// Deps carries the substrates an engine runs on. Heap is required for
// ModeStrong, Mem for the weak modes. Rec, Times and Spec are optional.
type Deps struct {
	Arb   *dlc.Arbiter
	Tbl   *detsync.Table
	Heap  *vheap.Heap
	Mem   *shmem.Mem
	Rec   *trace.Recorder
	Times *stats.Times
	Spec  *stats.Spec
	// Tel, if non-nil, receives the engine's telemetry: New attaches the
	// engine's per-event counters (turn waits, publications, reverted
	// words) to it, and, when the recorder keeps spans, per-thread
	// DLC-stamped timelines of turn waits, speculation runs, commits and
	// reverts. Disabled (nil) costs one pointer compare per audit point,
	// like OnViolation.
	Tel *telemetry.Recorder
	// OnViolation receives invariant violations when
	// Config.CheckInvariants is set. Nil means panic on violation — a
	// repeatable panic, since the engines are deterministic.
	OnViolation func(*invariant.Violation)
}

// Engine is the deterministic runtime. It implements dvm.Engine.
type Engine struct {
	cfg   Config
	arb   *dlc.Arbiter
	tbl   *detsync.Table
	heap  *vheap.Heap // strong mode: versioned, isolated memory
	mem   *shmem.Mem  // weak modes: flat memory, stores global at once
	rec   *trace.Recorder
	times *stats.Times
	spec  *stats.Spec
	tel   *telemetry.Recorder
	// m are the engine's per-event metrics, allocated and attached to tel
	// in New when tel is non-nil. Every update is guarded by the tel nil
	// compare. A separate allocation keeps their atomic adds off the cache
	// lines of the fields every thread reads at each turn.
	m *metrics

	// audit is the invariant checker, nil unless Config.CheckInvariants.
	audit *invariant.Checker

	// irrevocableOwner is the thread ID holding irrevocable status, or
	// -1. Read and written only at deterministic turn points.
	irrevocableOwner int
}

// metrics are the engine's per-event counters and histograms. The engine
// owns them and updates them with atomic adds — no recorder lock, no map
// lookup — and New attaches them to Deps.Tel under their report names.
// Only thread exit and run end still publish by name.
type metrics struct {
	turnWaits         telemetry.Counter   // commit-capable turns granted
	turnRetries       telemetry.Counter   // irrevocability backoff re-queues
	publishes         telemetry.Counter   // publications
	revertedWords     telemetry.Counter   // words discarded by reverts
	publishDirtyWords telemetry.Histogram // dirty words per publication
	revertWords       telemetry.Histogram // words discarded per revert
}

// attach registers every metric with rec under its report name.
func (m *metrics) attach(rec *telemetry.Recorder) {
	rec.AttachCounter("turn.waits", &m.turnWaits)
	rec.AttachCounter("turn.retries", &m.turnRetries)
	rec.AttachCounter("mempipe.publishes", &m.publishes)
	rec.AttachCounter("spec.reverted_words", &m.revertedWords)
	rec.AttachHistogram("mempipe.publish_dirty_words", &m.publishDirtyWords)
	rec.AttachHistogram("spec.revert_words", &m.revertWords)
}

// New builds an engine. It panics on inconsistent configuration, which is a
// programming error in the harness.
func New(cfg Config, d Deps) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Speculation && cfg.Mode != ModeStrong {
		panic("core: speculation requires ModeStrong (lazy determinism needs thread isolation)")
	}
	if cfg.Mode == ModeStrong && d.Heap == nil {
		panic("core: ModeStrong requires a versioned heap")
	}
	if cfg.Mode != ModeStrong && d.Mem == nil {
		panic("core: weak modes require direct shared memory")
	}
	if (cfg.Mode == ModeWeakNondet) != d.Arb.Nondet() {
		panic("core: arbiter determinism does not match mode")
	}
	e := &Engine{
		cfg:              cfg,
		arb:              d.Arb,
		tbl:              d.Tbl,
		rec:              d.Rec,
		times:            d.Times,
		spec:             d.Spec,
		tel:              d.Tel,
		irrevocableOwner: -1,
	}
	if cfg.Mode == ModeStrong {
		e.heap = d.Heap
	} else {
		e.mem = d.Mem
	}
	if d.Tel != nil {
		e.m = &metrics{}
		e.m.attach(d.Tel)
	}
	if cfg.CheckInvariants {
		e.audit = invariant.New(d.Arb, d.Tbl, d.Heap, d.OnViolation)
	}
	if d.Tbl != nil && cfg.Speculation {
		// Conflicting-hinted locks start pessimistic: an all-failure
		// success history keeps them conventional until RetryEvery probing
		// earns speculation back, instead of paying the warm-up reverts
		// the optimistic all-success seed would. (A no-op without
		// speculation metadata: the rows are nil then.)
		for l, h := range cfg.Hints {
			if h != HintConflicting || l >= len(d.Tbl.Locks) {
				continue
			}
			for tid := 0; tid < d.Tbl.NThreads; tid++ {
				if row := d.Tbl.SpecRow(tid); row != nil {
					row[l].Hist = 0
				}
			}
		}
	}
	return e
}

// Name implements dvm.Engine, using the evaluation's system names.
func (e *Engine) Name() string {
	switch {
	case e.cfg.Speculation:
		return "LazyDet"
	case e.cfg.Mode == ModeStrong:
		return "Consequence"
	case e.cfg.Mode == ModeWeak:
		return "TotalOrder-Weak"
	default:
		return "TotalOrder-Weak-Nondet"
	}
}

// Deterministic implements dvm.Engine. Strong modes are deterministic for
// all programs; ModeWeak only for data-race-free programs (all workloads in
// this repository are race-free); ModeWeakNondet is not deterministic.
func (e *Engine) Deterministic() bool { return e.cfg.Mode != ModeWeakNondet }

// strong reports whether the engine isolates threads in versioned memory.
func (e *Engine) strong() bool { return e.cfg.Mode == ModeStrong }

// seq returns the newest published commit sequence: always 0 on flat
// memory, where stores are global the moment they happen.
func (e *Engine) seq() int64 {
	if e.heap == nil {
		return 0
	}
	return e.heap.Seq()
}

// tstate is the engine's per-thread state, stored in Thread.EngineData.
type tstate struct {
	// mem is the thread's window for loads and stores: its view in strong
	// mode, the flat shared memory otherwise. The same window backs the
	// VM's Thread.Mem unless write-aware tagging wraps it.
	mem dvm.MemWindow
	// view is the thread's isolated versioned view, nil in the weak modes.
	// Publication, refresh and speculation drive it directly.
	view *vheap.View

	// depth is the current lock nesting, speculative or conventional,
	// exclusive or shared.
	depth        int
	heldConv     []int64 // conventionally held exclusive locks
	heldConvRead []int64 // conventionally held shared locks

	// tickFlushes counts the batched clock flushes this thread sent into
	// the arbiter (see dlc.TickWindow) — published as the deterministic
	// "dlc.tick_flushes" counter at thread exit. Thread-local, so the hot
	// Tick path never touches the telemetry registry's mutex.
	tickFlushes int64

	// Speculation state (paper §3.1–§3.5).
	spec        bool                 // inside a speculation run
	irrevocable bool                 // run upgraded to irrevocable
	begin       int64                // BEGIN_i: DLC when the run started
	baseAtBegin int64                // heap sequence the run's view is based on
	snap        *dvm.Snapshot        // state to restore on revert
	dirtySnap   *vheap.DirtySnapshot // pre-run private writes, preserved across reverts

	// snapScratch and dirtyScratch are the retained buffers snap/dirtySnap
	// are rebuilt into at every BEGIN (per-thread scratch, not a sync.Pool,
	// so recycling cannot perturb deterministic allocation-order counts).
	snapScratch  *dvm.Snapshot
	dirtyScratch *vheap.DirtySnapshot
	logLocks     []logEntry         // L_i: locks touched, in first-acquisition order
	lockRow      []lockSlot         // per lock ID: place in logLocks, WriteAware tag
	specRow      []detsync.SpecMeta // this thread's per-lock success histories (§3.4)
	heldSpecRead []int64            // locks currently held speculatively in shared mode
	atomLog      []int64            // atomically accessed locations (§7 extension)
	atomCount    map[int64]int      // accesses per logged location
	heldSpec     []int64            // locks currently held speculatively
	runCS        int                // critical sections in the current run
	noSpecNext   bool               // progress guarantee after a revert (§3.2)

	// Per-thread speculation history, used when PerLockStats is off.
	threadHist     uint64
	threadAttempts uint32
}

func (e *Engine) ts(t *dvm.Thread) *tstate { return t.EngineData.(*tstate) }

// ThreadStart implements dvm.Engine. Suspended threads are registered as
// parked, so they do not pin the global clock minimum at zero before they
// are spawned.
func (e *Engine) ThreadStart(t *dvm.Thread) {
	ts := &tstate{threadHist: ^uint64(0)}
	ts.mem = e.mem
	if e.heap != nil {
		ts.view = e.heap.NewView()
		ts.mem = ts.view
	}
	t.Mem = ts.mem
	if ts.view != nil && e.cfg.Spec.WriteAware {
		t.Mem = writeAwareWindow{ts.view, ts}
	}
	if e.tbl != nil && (e.cfg.Speculation || e.cfg.Spec.WriteAware) {
		ts.lockRow = make([]lockSlot, len(e.tbl.Locks))
		ts.specRow = e.tbl.SpecRow(t.ID)
	}
	t.EngineData = ts
	// The thread's logical-clock reader: arb.DLC is this thread's own
	// clock, so the read is exact at every published flush point and
	// needs no arbitration. Deterministic by the same argument as the
	// tick stream itself.
	tid := t.ID
	t.Clock = func() int64 { return e.arb.DLC(tid) }
	if e.tel != nil {
		// Per-opcode retired-instruction counters: the opcode mix is a
		// function of the deterministic schedule under this engine, so it
		// is published as gateable metrics at thread exit.
		t.EnableRetiredCounts()
	}
	if t.Prog().StartSuspended {
		e.arb.SetParked(t.ID)
	}
}

// ThreadExit implements dvm.Engine: terminate any outstanding speculation
// run (re-running the thread if the run reverts), publish outstanding
// writes, and leave turn arbitration.
func (e *Engine) ThreadExit(t *dvm.Thread) bool {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return false // reverted: resume interpreting from the snapshot
		}
	}
	if e.arb.Nondet() {
		e.arb.Exit(t.ID)
		return true
	}
	// Take a final turn: the exit commit publishes outstanding writes
	// (strong mode), and Exit in place of releasing the turn makes the
	// Exited status visible exactly at this deterministic boundary, which
	// keeps joiners' retry counts deterministic.
	e.waitCommitTurn(t)
	e.publish(t, ts)
	if e.tel != nil {
		// The thread's final clock: summed over threads this is the run's
		// total deterministic logical work, the report's "dlc.total".
		e.tel.Count("dlc.total", e.arb.DLC(t.ID))
		// How many batched flushes delivered it (see dlc.TickWindow):
		// dlc.total / dlc.tick_flushes is the realized batching factor.
		e.tel.Count("dlc.tick_flushes", ts.tickFlushes)
		// The retired opcode mix, summed across threads. Re-executions
		// after speculation reverts retire again, exactly as the thread
		// re-ran them; both backends count identically.
		for op, n := range t.RetiredCounts() {
			if n != 0 {
				e.tel.Count("dvm.retired."+dvm.Opcode(op).String(), n)
			}
		}
	}
	e.arb.Exit(t.ID)
	if ts.view != nil {
		ts.view.Close()
	}
	return true
}

// Tick implements dvm.Engine. The interpreter batches retired-instruction
// cost (dlc.TickWindow), so this runs once per batch, not per instruction.
func (e *Engine) Tick(t *dvm.Thread, cost int64) {
	if cost == 0 {
		return
	}
	e.ts(t).tickFlushes++
	e.arb.Tick(t.ID, cost)
}

// writeAwareWindow is the memory window installed when write-aware conflict
// detection is on: it intercepts the VM's stores to tag the locks held at
// the store, and passes loads through to the thread's view. Only the VM's
// plain stores go through it — speculation-internal stores (atomics) use
// ts.view directly and are tracked by the atomic log instead.
type writeAwareWindow struct {
	*vheap.View
	ts *tstate
}

func (w writeAwareWindow) Store(addr, val int64) {
	w.View.Store(addr, val)
	if w.ts.depth > 0 {
		w.ts.markWrite()
	}
}

// markWrite tags every currently held lock as having guarded a write.
func (ts *tstate) markWrite() {
	for _, l := range ts.heldSpec {
		ts.lockRow[l].wrote = true
	}
	for _, l := range ts.heldConv {
		ts.lockRow[l].wrote = true
	}
}

// takeWrote reports whether a store happened while l was held, and clears
// the tag: called where the thread releases l.
func (ts *tstate) takeWrote(l int64) bool {
	s := &ts.lockRow[l]
	wrote := s.wrote
	s.wrote = false
	return wrote
}

// waitTurn blocks for the deterministic turn, charging blocked time.
//
//lazydet:nondeterministic the wall clock only measures blocked time for stats.Times; the value never influences control flow
func (e *Engine) waitTurn(t *dvm.Thread) {
	if e.times == nil {
		e.arb.WaitTurn(t.ID)
		return
	}
	start := time.Now()
	e.arb.WaitTurn(t.ID)
	e.times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
}

// maxBackoff caps the exponential retry quantum. Retry bumps stay
// deterministic — they depend only on the retry count — while convoys of
// many threads spinning on one contended resource advance their clocks
// quickly instead of re-queuing at every quantum.
const maxBackoff = 512

// waitCommitTurn blocks for a turn at which the thread is allowed to commit:
// while another thread holds irrevocable status, everyone else's commits are
// blocked (paper §3.5), implemented as deterministic quantum bumps.
//
// With telemetry enabled the whole wait is one turn-wait span in DLC time:
// from the clock at which the thread first requested the turn to the clock
// at which a commit-capable turn was granted. Both stamps, and the retry
// count, are deterministic — retries depend only on the deterministic
// irrevocability schedule.
func (e *Engine) waitCommitTurn(t *dvm.Thread) {
	defer phaseBegin(phaseGrant)()
	var d0, retries int64
	if e.tel != nil {
		d0 = e.arb.DLC(t.ID)
	}
	backoff := e.cfg.Quantum
	for {
		e.waitTurn(t)
		if e.audit != nil {
			e.audit.AtTurn(t.ID)
		}
		if e.irrevocableOwner == -1 || e.irrevocableOwner == t.ID {
			if e.tel != nil {
				e.m.turnWaits.Add(1)
				if retries > 0 {
					e.m.turnRetries.Add(retries)
				}
				e.tel.Span(t.ID, telemetry.SpanTurnWait, d0, e.arb.DLC(t.ID), retries)
			}
			return
		}
		retries++
		e.arb.ReleaseTurn(t.ID, backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// publish makes the thread's unpublished writes globally visible with a
// versioned commit of its view, recording the commit in the trace and
// auditing commit integrity. On flat (weak-mode) memory there is no view and
// this is a no-op — which is what lets the synchronization paths drive one
// publication choreography for every engine. Caller holds the turn.
func (e *Engine) publish(t *dvm.Thread, ts *tstate) {
	v := ts.view
	if v == nil || v.DirtyPages() == 0 {
		return
	}
	defer phaseBegin(phaseCommit)()
	if e.audit != nil {
		e.audit.AtPublish(t.ID, v)
	}
	if e.tel != nil {
		e.m.publishes.Add(1)
		e.m.publishDirtyWords.Observe(int64(v.DirtyWords()))
	}
	seq, _ := v.Commit()
	my := e.arb.DLC(t.ID)
	e.rec.Commit(t.ID, my, seq)
	if e.tel != nil {
		e.tel.Span(t.ID, telemetry.SpanCommit, my, my, seq)
	}
	if e.audit != nil {
		e.audit.AtCommit(t.ID, seq)
	}
}

// publishAndRefresh publishes the thread's writes and re-bases its window on
// the newest published state — the memory half of every eager
// synchronization operation (paper §2: writes become visible "only as a
// result of synchronization operations").
func (e *Engine) publishAndRefresh(t *dvm.Thread, ts *tstate) {
	e.publish(t, ts)
	if ts.view != nil {
		ts.view.Update()
	}
}

// blockedWake waits for a Wake, charging blocked time.
//
//lazydet:nondeterministic the wall clock only measures blocked time for stats.Times; the value never influences control flow
func (e *Engine) blockedWake(t *dvm.Thread) {
	if e.times == nil {
		e.tbl.WaitWake(t.ID)
		return
	}
	start := time.Now()
	e.tbl.WaitWake(t.ID)
	e.times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
}
