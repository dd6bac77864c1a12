package core

import (
	"strings"
	"sync"
	"testing"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/invariant"
	"lazydet/internal/vheap"
)

// TestSpecLogRuleCatchesStaleEntry is the mutation test of the spec-log
// invariant. A stale lock-row entry makes lock 1 land on lock 0's log entry,
// so lock 1 is never logged as itself and never validated. resetSpec clears
// only the slots of logged locks, so the stale slot survives into the next
// run, whose BEGIN must report it as a spec-log violation naming lock 1.
func TestSpecLogRuleCatchesStaleEntry(t *testing.T) {
	cfg := lazyCfg()
	cfg.CheckInvariants = true
	var got []*invariant.Violation
	d := Deps{
		Arb:  dlc.New(1),
		Tbl:  detsync.NewTable(1, 2, 0, 0, true),
		Heap: vheap.New(64),
		// One thread: the off-turn spec-log report cannot race.
		OnViolation: func(v *invariant.Violation) { got = append(got, v) },
	}
	e := New(cfg, d)

	b := dvm.NewBuilder("stale-entry")
	b.Lock(dvm.Const(0)) // BEGIN: the log is lock 0 at position 1
	b.Unlock(dvm.Const(0))
	b.Do(func(th *dvm.Thread) { e.ts(th).lockRow[1].logPos = 1 })
	b.Lock(dvm.Const(1)) // coarsened into the run, counted as lock 0
	b.Unlock(dvm.Const(1))
	b.Syscall(&dvm.Syscall{Name: "end-run"}) // outside a section: commits
	b.Lock(dvm.Const(0))                     // the next BEGIN: audit fires here
	b.Unlock(dvm.Const(0))
	dvm.Run(e, []*dvm.Program{b.Build()})

	if acq := d.Tbl.Locks[1].Acquires; acq != 0 {
		t.Fatalf("lock 1 acquires = %d; the stale entry should have hidden its acquisition from the log", acq)
	}
	if len(got) == 0 {
		t.Fatal("stale lock-row entry produced no invariant violation")
	}
	v := got[0]
	if v.Rule != "spec-log" {
		t.Fatalf("violation rule = %q, want spec-log (%v)", v.Rule, v)
	}
	if !strings.Contains(v.Detail, "lock 1 ") {
		t.Fatalf("violation detail %q does not name lock 1", v.Detail)
	}
}

// TestSpecLogRuleCleanRun: the audit stays silent on a real contended
// workload with nested sections, reverts and WriteAware tags.
func TestSpecLogRuleCleanRun(t *testing.T) {
	for _, writeAware := range []bool{false, true} {
		cfg := lazyCfg()
		cfg.Spec = DefaultSpecConfig()
		cfg.Spec.WriteAware = writeAware
		cfg.CheckInvariants = true
		var mu sync.Mutex // spec-log reports come off-turn, from any thread
		var got []*invariant.Violation
		d := Deps{
			Arb:  dlc.New(3),
			Tbl:  detsync.NewTable(3, 4, 0, 0, true),
			Heap: vheap.New(64),
			OnViolation: func(v *invariant.Violation) {
				mu.Lock()
				got = append(got, v)
				mu.Unlock()
			},
		}
		e := New(cfg, d)
		b := dvm.NewBuilder("nested")
		i, v := b.Reg(), b.Reg()
		b.ForN(i, 150, func() {
			// The outer lock varies; the inner one guards the counter.
			outer := dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) % 3 })
			inner := dvm.Const(3)
			b.Lock(outer)
			b.Lock(inner)
			b.Load(v, dvm.Const(0))
			b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
			b.Unlock(inner)
			b.Unlock(outer)
		})
		p := b.Build()
		dvm.Run(e, []*dvm.Program{p, p, p})
		if len(got) != 0 {
			t.Fatalf("writeAware=%v: clean run reported %v", writeAware, got[0])
		}
		if c := d.Heap.ReadCommitted(0); c != 450 {
			t.Fatalf("writeAware=%v: counter = %d, want 450", writeAware, c)
		}
	}
}

// TestAuditSpecLogDetectsEachBreach exercises every clause of the audit on a
// hand-built, non-empty log, which a BEGIN never presents.
func TestAuditSpecLogDetectsEachBreach(t *testing.T) {
	fresh := func() *tstate {
		ts := &tstate{lockRow: make([]lockSlot, 4)}
		ts.logLocks = []logEntry{{lock: 2, count: 1}, {lock: 0, count: 2, write: true}}
		ts.lockRow[2].logPos = 1
		ts.lockRow[0].logPos = 2
		return ts
	}
	if err := fresh().AuditSpecLog(); err != nil {
		t.Fatalf("consistent log flagged: %v", err)
	}
	cases := []struct {
		name   string
		break_ func(ts *tstate)
		want   string
	}{
		{"logged lock points at another entry", func(ts *tstate) { ts.lockRow[2].logPos = 2 }, "lock 2 has row slot 2"},
		{"unlogged lock has a slot", func(ts *tstate) { ts.lockRow[3].logPos = 1 }, "lock 3 has row slot 1"},
		{"slot past the log", func(ts *tstate) { ts.lockRow[1].logPos = 7 }, "lock 1 has row slot 7"},
		{"tag on a lock neither held nor logged", func(ts *tstate) { ts.lockRow[1].wrote = true }, "lock 1 carries a write tag"},
	}
	for _, c := range cases {
		ts := fresh()
		c.break_(ts)
		err := ts.AuditSpecLog()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: audit = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// A write tag on a held or logged lock is legitimate.
	ts := fresh()
	ts.lockRow[0].wrote = true
	ts.lockRow[1].wrote = true
	ts.heldConv = []int64{1}
	if err := ts.AuditSpecLog(); err != nil {
		t.Fatalf("tags on a logged and a held lock flagged: %v", err)
	}
}

// TestSpecBookkeepingSteadyStateAllocFree: once warm, the speculation
// bookkeeping allocates nothing — neither a run with nested acquires that
// commits, nor one that reverts. The engine calls run on the live thread
// from inside its own program, the same goroutine the interpreter drives
// them from. The stats sink is left out: its revert samples are a
// reporting append, not bookkeeping.
func TestSpecBookkeepingSteadyStateAllocFree(t *testing.T) {
	for _, writeAware := range []bool{false, true} {
		commits, reverts := specBookkeepingAllocs(t, writeAware)
		if commits != 0 {
			t.Errorf("writeAware=%v: a committing speculation run allocates %.1f times, want 0", writeAware, commits)
		}
		if reverts != 0 {
			t.Errorf("writeAware=%v: a reverting speculation run allocates %.1f times, want 0", writeAware, reverts)
		}
	}
}

// specBookkeepingAllocs measures the allocations of one committing and one
// reverting speculation run on a warm single-thread engine.
func specBookkeepingAllocs(t *testing.T, writeAware bool) (commitAllocs, revertAllocs float64) {
	cfg := lazyCfg()
	cfg.Spec = DefaultSpecConfig()
	cfg.Spec.RetryEvery = 1 // keep speculating through a string of reverts
	cfg.Spec.WriteAware = writeAware
	tbl := detsync.NewTable(1, 3, 1, 0, true)
	e := New(cfg, Deps{Arb: dlc.New(1), Tbl: tbl, Heap: vheap.New(256)})

	b := dvm.NewBuilder("bookkeeping")
	b.Do(func(th *dvm.Thread) {
		ts := e.ts(th)
		pc := th.PC
		val := int64(0)
		run := func(conflict bool) {
			val++
			e.Lock(th, 0) // BEGIN
			e.Lock(th, 1) // nested: flattened into the run
			th.Mem.Store(8, val)
			th.Mem.Store(100, val)
			e.Unlock(th, 1)
			e.Unlock(th, 0)
			if conflict {
				tbl.Locks[1].Owner = 2 // another thread holds a logged lock
			}
			e.CondSignal(th, 0) // terminates the run: commit or revert
			tbl.Locks[1].Owner = 0
			if conflict {
				// A revert rewinds the PC to the instruction that began
				// the run — this closure's; put it back where the
				// interpreter expects it. The progress guarantee runs the
				// next section conventionally, which also clears it.
				th.PC = pc
				e.Lock(th, 2)
				e.Unlock(th, 2)
			}
		}
		for i := 0; i < 8; i++ {
			run(false)
			run(true)
		}
		acquires := tbl.Locks[0].Acquires
		commitAllocs = testing.AllocsPerRun(100, func() { run(false) })
		if ts.spec || len(ts.logLocks) != 0 {
			t.Errorf("commit run left spec=%v with %d logged locks", ts.spec, len(ts.logLocks))
		}
		if tbl.Locks[0].Acquires == acquires {
			t.Error("the commit runs published no acquisitions of lock 0")
		}
		reverts := tbl.Locks[1].ConflictReverts
		revertAllocs = testing.AllocsPerRun(100, func() { run(true) })
		if tbl.Locks[1].ConflictReverts == reverts {
			t.Error("the conflict runs did not revert on lock 1")
		}
	})
	dvm.Run(e, []*dvm.Program{b.Build()})
	return commitAllocs, revertAllocs
}
