package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lazydet/internal/core"
	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/engine/direct"
	"lazydet/internal/harness"
	"lazydet/internal/shmem"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
	"lazydet/internal/vheap"
)

// hook names one dvm.Engine entry point the tracer times.
type hook uint8

const (
	hStart hook = iota
	hResume
	hExit
	hTick
	hLock
	hUnlock
	hRLock
	hRUnlock
	hCondWait
	hCondSignal
	hCondBroadcast
	hBarrier
	hSyscall
	hAtomic
	hSpawn
	hJoin
	nHooks
)

var hookNames = [nHooks]string{
	"start", "resume", "exit", "tick", "lock", "unlock", "rlock", "runlock",
	"condwait", "condsignal", "condbroadcast", "barrier", "syscall", "atomic", "spawn", "join",
}

func (h hook) String() string { return hookNames[h] }

// span is one hook call on one thread, in nanoseconds since the run began.
type span struct {
	start, end int64
	hook       hook
}

// threadTrace is one VM thread's record. Only the thread's own goroutine
// writes it (engine hooks run on the calling thread's goroutine); it is
// read after dvm.Run has waited for every thread.
type threadTrace struct {
	spans         []span
	loads, stores int64
	_             [64]byte // keep neighbouring threads' counters off one cache line
}

// tracer wraps a dvm.Engine and records a span for every hook call, timing
// the engine from outside its package. The time between two hook calls on
// a thread is the VM's own dispatch work (dvm self time).
type tracer struct {
	inner dvm.Engine
	t0    time.Time
	thr   []threadTrace
}

func newTracer(inner dvm.Engine, n int) *tracer {
	return &tracer{inner: inner, thr: make([]threadTrace, n)}
}

func (x *tracer) now() int64 { return int64(time.Since(x.t0)) }

func (x *tracer) done(t *dvm.Thread, h hook, start int64) {
	tt := &x.thr[t.ID]
	tt.spans = append(tt.spans, span{start: start, end: x.now(), hook: h})
}

// countingWindow counts the thread's shared-memory loads and stores on the
// way to the engine's window.
type countingWindow struct {
	dvm.MemWindow
	tt *threadTrace
}

func (w countingWindow) Load(addr int64) int64 {
	w.tt.loads++
	return w.MemWindow.Load(addr)
}

func (w countingWindow) Store(addr, val int64) {
	w.tt.stores++
	w.MemWindow.Store(addr, val)
}

func (x *tracer) Name() string        { return x.inner.Name() }
func (x *tracer) Deterministic() bool { return x.inner.Deterministic() }

func (x *tracer) ThreadStart(t *dvm.Thread) {
	s := x.now()
	x.inner.ThreadStart(t)
	t.Mem = countingWindow{t.Mem, &x.thr[t.ID]}
	x.done(t, hStart, s)
}

// ThreadResume forwards the optional hook dvm.Run type-asserts for threads
// that start suspended; without it the wrapped engine would never refresh
// a spawned thread's view.
func (x *tracer) ThreadResume(t *dvm.Thread) {
	s := x.now()
	if r, ok := x.inner.(interface{ ThreadResume(*dvm.Thread) }); ok {
		r.ThreadResume(t)
	}
	x.done(t, hResume, s)
}

func (x *tracer) ThreadExit(t *dvm.Thread) bool {
	s := x.now()
	ok := x.inner.ThreadExit(t)
	x.done(t, hExit, s)
	return ok
}

func (x *tracer) Tick(t *dvm.Thread, cost int64) {
	s := x.now()
	x.inner.Tick(t, cost)
	x.done(t, hTick, s)
}

func (x *tracer) Lock(t *dvm.Thread, l int64) {
	s := x.now()
	x.inner.Lock(t, l)
	x.done(t, hLock, s)
}

func (x *tracer) Unlock(t *dvm.Thread, l int64) {
	s := x.now()
	x.inner.Unlock(t, l)
	x.done(t, hUnlock, s)
}

func (x *tracer) RLock(t *dvm.Thread, l int64) {
	s := x.now()
	x.inner.RLock(t, l)
	x.done(t, hRLock, s)
}

func (x *tracer) RUnlock(t *dvm.Thread, l int64) {
	s := x.now()
	x.inner.RUnlock(t, l)
	x.done(t, hRUnlock, s)
}

func (x *tracer) CondWait(t *dvm.Thread, cv, l int64) {
	s := x.now()
	x.inner.CondWait(t, cv, l)
	x.done(t, hCondWait, s)
}

func (x *tracer) CondSignal(t *dvm.Thread, cv int64) {
	s := x.now()
	x.inner.CondSignal(t, cv)
	x.done(t, hCondSignal, s)
}

func (x *tracer) CondBroadcast(t *dvm.Thread, cv int64) {
	s := x.now()
	x.inner.CondBroadcast(t, cv)
	x.done(t, hCondBroadcast, s)
}

func (x *tracer) BarrierWait(t *dvm.Thread, b int64) {
	s := x.now()
	x.inner.BarrierWait(t, b)
	x.done(t, hBarrier, s)
}

func (x *tracer) Syscall(t *dvm.Thread, sc *dvm.Syscall) {
	s := x.now()
	x.inner.Syscall(t, sc)
	x.done(t, hSyscall, s)
}

func (x *tracer) Atomic(t *dvm.Thread, a *dvm.Atomic) int64 {
	s := x.now()
	v := x.inner.Atomic(t, a)
	x.done(t, hAtomic, s)
	return v
}

func (x *tracer) Spawn(t *dvm.Thread, target int) {
	s := x.now()
	x.inner.Spawn(t, target)
	x.done(t, hSpawn, s)
}

func (x *tracer) Join(t *dvm.Thread, target int) {
	s := x.now()
	x.inner.Join(t, target)
	x.done(t, hJoin, s)
}

// tracedRun is one traced run: the result the engine assembly produced,
// the per-thread spans, and the run's duration.
type tracedRun struct {
	res *harness.Result
	tr  *tracer
	// runNs is the dvm.Run span every thread span is a child of.
	runNs int64
	// dur is the whole traced run: assembly, execution and output check,
	// as a repetition is timed around the public Run call.
	dur time.Duration
}

// runTraced assembles eng for w the way harness.Run does with the
// reference options (trace recording, telemetry, blocked-time accounting,
// speculation statistics on LazyDet), wraps it in a tracer and runs it.
// The workload's Validate hook checks the output.
func runTraced(w *harness.Workload, eng harness.EngineKind, n int) (*tracedRun, error) {
	start := time.Now()
	progs := w.Programs(n)
	res := &harness.Result{Engine: eng, Workload: w.Name, Threads: n}
	rec := trace.New(n)
	tel := telemetry.New()
	times := stats.NewTimes(n)
	var spec *stats.Spec
	if eng == harness.LazyDet {
		spec = &stats.Spec{}
	}

	var inner dvm.Engine
	var readFinal func(int64) int64
	var finish func()
	switch eng {
	case harness.Pthreads:
		mem := shmem.New(w.HeapWords)
		if w.Init != nil {
			w.Init(mem.SetInitial, n)
		}
		de := direct.New(mem, n, w.Locks, w.Conds, w.Barriers)
		de.Times = times
		inner, readFinal = de, mem.ReadCommitted
		finish = func() { res.HeapHash = mem.Hash() }
	case harness.Consequence, harness.LazyDet:
		heap := vheap.New(w.HeapWords, vheap.WithTelemetry(tel))
		if w.Init != nil {
			w.Init(heap.SetInitial, n)
		}
		arb := dlc.New(n)
		tbl := detsync.NewTable(n, w.Locks, w.Conds, w.Barriers, eng == harness.LazyDet)
		inner = core.New(core.Config{Mode: core.ModeStrong, Speculation: eng == harness.LazyDet}, core.Deps{
			Arb: arb, Tbl: tbl, Heap: heap, Rec: rec, Times: times, Spec: spec, Tel: tel,
		})
		readFinal = heap.ReadCommitted
		finish = func() {
			st := arb.Stats()
			res.ArbiterWakes, res.ArbiterGrantWork, res.ArbiterChainHits = st.Wakes, st.GrantWork, st.ChainHits
			tel.Count("dlc.wakes", st.Wakes)
			tel.Count("dlc.grant_work", st.GrantWork)
			tel.Count("dlc.chain_hits", st.ChainHits)
			tel.Count("dlc.chain_fast", st.ChainFast)
			tel.SetGauge("dlc.arbiter_depth", float64(st.Depth))
			res.HeapHash = heap.Hash()
			hs := heap.Stats()
			res.Commits, res.PagesCommitted, res.WordsCommitted, res.WordsScanned = hs.Commits, hs.Pages, hs.Words, hs.WordsScanned
			res.LiveVersions = heap.LiveVersions()
			if eng == harness.LazyDet {
				res.LockReverts = make([]int64, len(tbl.Locks))
				for i := range tbl.Locks {
					res.LockReverts[i] = tbl.Locks[i].ConflictReverts
				}
			}
		}
	default:
		return nil, fmt.Errorf("traced run: engine %s is not benchmarked", eng)
	}

	tr := newTracer(inner, n)
	cpu0 := stats.ProcessCPUNs()
	tr.t0 = time.Now()
	dvm.Run(tr, progs)
	runNs := tr.now()
	res.Wall = time.Duration(runNs)
	res.CPU = time.Duration(stats.ProcessCPUNs() - cpu0)
	finish()
	res.TraceSig, res.SyncEvents, res.Recorder = rec.Signature(), rec.Events(), rec
	res.Spec, res.Times, res.Telemetry = spec, times, tel
	res.BlockedPct = 100 - times.UtilizationPct(runNs, n)
	absorbStats(tel, res)
	var err error
	if w.Validate != nil {
		err = w.Validate(readFinal, n)
	}
	return &tracedRun{res: res, tr: tr, runNs: runNs, dur: time.Since(start)}, err
}

// absorbStats folds the run's collectors into its telemetry the way the
// harness does after every run, so the traced run's report carries the
// same metric names as the reference run's.
func absorbStats(tel *telemetry.Recorder, res *harness.Result) {
	if s := res.Spec; s != nil {
		tel.Count("spec.total_acquires", s.TotalAcquires.Load())
		tel.Count("spec.spec_acquires", s.SpecAcquires.Load())
		tel.Count("spec.runs", s.Runs.Load())
		tel.Count("spec.commits", s.Commits.Load())
		tel.Count("spec.reverts", s.Reverts.Load())
		tel.Count("spec.committed_cs", s.CommittedCS.Load())
		tel.Count("spec.upgrades", s.Upgrades.Load())
		tel.SetGauge("spec.acquire_pct", s.SpecAcquirePct())
		tel.SetGauge("spec.success_pct", s.SuccessPct())
	}
	if res.LockReverts != nil {
		var sum int64
		for _, n := range res.LockReverts {
			sum += n
		}
		tel.Count("spec.conflict_reverts", sum)
	}
	if res.Recorder != nil {
		tel.Count("sync.events", res.SyncEvents)
	}
	if res.LiveVersions > 0 {
		tel.SetGauge("vheap.live_versions", float64(res.LiveVersions))
	}
}

// layerTimes is the time split of one traced run.
type layerTimes struct {
	// hookNs and dvmNs sum hook time and the gaps between hook calls
	// over all threads; threadNs sums the thread spans.
	hookNs, dvmNs, threadNs int64
	// minCoverage and maxCoverage bound the share of a thread span that
	// hook time plus dvm self time account for. Below 1, time went
	// unrecorded; above 1, spans overlap, which sequential hook calls on
	// one goroutine cannot do.
	minCoverage, maxCoverage float64
	// durs holds every hook call's duration, by hook.
	durs [nHooks][]int64
	// loads and stores count shared-memory accesses over all threads.
	loads, stores int64
}

// splitTimes attributes each thread's span to hooks and dvm self time. A
// thread span runs from the start of dvm.Run, its parent span, to the end
// of the thread's last hook call. The time before the thread's first hook
// is goroutine start-up, which neither side covers.
func splitTimes(tr *tracer) layerTimes {
	lt := layerTimes{minCoverage: 1}
	for i := range tr.thr {
		tt := &tr.thr[i]
		lt.loads += tt.loads
		lt.stores += tt.stores
		if len(tt.spans) == 0 {
			continue
		}
		var hook, self int64
		prevEnd := tt.spans[0].start
		for _, s := range tt.spans {
			d := s.end - s.start
			hook += d
			lt.durs[s.hook] = append(lt.durs[s.hook], d)
			if gap := s.start - prevEnd; gap > 0 {
				self += gap
			}
			prevEnd = s.end
		}
		threadNs := tt.spans[len(tt.spans)-1].end
		lt.hookNs += hook
		lt.dvmNs += self
		lt.threadNs += threadNs
		if threadNs > 0 {
			c := float64(hook+self) / float64(threadNs)
			lt.minCoverage = math.Min(lt.minCoverage, c)
			lt.maxCoverage = math.Max(lt.maxCoverage, c)
		}
	}
	return lt
}

// memStatsBytes reads the Go heap's cumulative allocated bytes.
func memStatsBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
