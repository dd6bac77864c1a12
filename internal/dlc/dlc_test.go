package dlc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// turnChecks lists the two ways every turn-discipline test runs against
// the arbiter. "tree" takes turns with plain WaitTurn calls. "flat"
// re-checks every grant against the flat (DLC, tid) scan over true clocks
// (AuditTurn, the predicate the retired O(n) arbiter computed) and the
// tournament trees against a scan of their published keys (AuditTree), and
// audits the trees once more when the test ends.
var turnChecks = []turnCheck{{"tree", false}, {"flat", true}}

type turnCheck struct {
	name  string
	audit bool
}

// arbiter returns an n-thread arbiter; audited arbiters are re-audited when the
// test ends, once every thread is quiescent.
func (c turnCheck) arbiter(t *testing.T, n int) *Arbiter {
	a := New(n)
	if c.audit {
		t.Cleanup(func() {
			if err := a.AuditTree(); err != nil {
				t.Errorf("final state: %v", err)
			}
		})
	}
	return a
}

// wait takes thread tid's turn, auditing the grant under the flat check.
// Safe to call from any goroutine: failures are reported with t.Errorf.
func (c turnCheck) wait(t *testing.T, a *Arbiter, tid int) {
	a.WaitTurn(tid)
	if !c.audit {
		return
	}
	if err := a.AuditTurn(tid); err != nil {
		t.Errorf("grant to thread %d: %v", tid, err)
	}
	if err := a.AuditTree(); err != nil {
		t.Errorf("grant to thread %d: %v", tid, err)
	}
}

// TestTurnOrderFollowsClock checks that turns are granted in (DLC, tid)
// order: three threads request turns with distinct clocks and must be
// admitted lowest-clock first.
func TestTurnOrderFollowsClock(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 3)
			a.SetDLC(0, 30)
			a.SetDLC(1, 10)
			a.SetDLC(2, 20)

			var mu sync.Mutex
			var order []int
			var wg sync.WaitGroup
			for tid := 0; tid < 3; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					v.wait(t, a, tid)
					mu.Lock()
					order = append(order, tid)
					mu.Unlock()
					a.ReleaseTurn(tid, 100) // push clock past the others
				}(tid)
			}
			wg.Wait()
			want := []int{1, 2, 0}
			for i, tid := range want {
				if order[i] != tid {
					t.Fatalf("turn order = %v, want %v", order, want)
				}
			}
		})
	}
}

// TestTieBreakByThreadID checks that equal clocks admit the lower thread ID
// first.
func TestTieBreakByThreadID(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 2)
			// Both at DLC 0. Thread 1 requests first, but thread 0 must win.
			got0 := make(chan struct{})
			go func() {
				v.wait(t, a, 1)
				close(got0)
			}()
			time.Sleep(10 * time.Millisecond)
			select {
			case <-got0:
				t.Fatal("thread 1 got the turn while thread 0 (same DLC, lower tid) was runnable")
			default:
			}
			v.wait(t, a, 0)
			a.ReleaseTurn(0, 5)
			<-got0 // now thread 1 proceeds
			a.ReleaseTurn(1, 5)
		})
	}
}

// TestRunningThreadBlocksWaiter checks that a running thread with a lower
// clock blocks a waiter until its clock passes the waiter's.
func TestRunningThreadBlocksWaiter(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 2)
			a.SetDLC(0, 0)  // running
			a.SetDLC(1, 50) // will wait

			granted := make(chan struct{})
			go func() {
				v.wait(t, a, 1)
				close(granted)
			}()
			time.Sleep(10 * time.Millisecond)
			select {
			case <-granted:
				t.Fatal("waiter admitted while a running thread had a lower clock")
			default:
			}
			// Tick thread 0 past the waiter: grants the turn.
			for i := 0; i < 6; i++ {
				a.Tick(0, 10)
			}
			select {
			case <-granted:
			case <-time.After(2 * time.Second):
				t.Fatal("waiter not admitted after the running thread's clock passed it")
			}
			a.ReleaseTurn(1, 1)
		})
	}
}

// TestParkedThreadExcluded checks that parked threads do not block waiters.
func TestParkedThreadExcluded(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 2)
			a.SetDLC(0, 0)
			a.SetDLC(1, 100)
			v.wait(t, a, 0)
			a.Park(0) // thread 0 parks at its turn with the lower clock
			done := make(chan struct{})
			go func() {
				v.wait(t, a, 1)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("parked thread still blocked the waiter")
			}
			a.ReleaseTurn(1, 1)
			a.Unpark(0, 200)
			if got := a.DLC(0); got != 200 {
				t.Fatalf("DLC after Unpark = %d, want 200", got)
			}
			if a.Status(0) != StatusRunning {
				t.Fatalf("status after Unpark = %v, want running", a.Status(0))
			}
		})
	}
}

// TestExitedThreadExcluded checks that exited threads do not block waiters.
func TestExitedThreadExcluded(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 2)
			a.SetDLC(0, 0)
			a.SetDLC(1, 100)
			a.Exit(0)
			done := make(chan struct{})
			go func() {
				v.wait(t, a, 1)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("exited thread still blocked the waiter")
			}
		})
	}
}

// TestTurnMutualExclusion hammers the arbiter with concurrent turn takers
// and checks that at most one thread holds the turn at a time.
func TestTurnMutualExclusion(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			const n = 8
			const rounds = 200
			a := v.arbiter(t, n)
			var inTurn atomic.Int32
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						v.wait(t, a, tid)
						if inTurn.Add(1) != 1 {
							t.Errorf("two threads hold the turn simultaneously")
						}
						inTurn.Add(-1)
						a.ReleaseTurn(tid, 3)
						a.Tick(tid, 2)
					}
					a.Exit(tid)
				}(tid)
			}
			wg.Wait()
		})
	}
}

// TestDeterministicGrantSequence runs the same concurrent turn-taking
// schedule twice and checks the grant order is identical across runs and
// equal to the host model's: grants follow (DLC, tid), and DLC evolution is
// fixed by the protocol.
func TestDeterministicGrantSequence(t *testing.T) {
	const n = 4
	const rounds = 50
	sc := newScript(n, rounds, func(tid, _ int) (int64, int64) {
		return int64(1 + tid), 2 // distinct per-thread tick patterns
	})
	want := sc.model(false)
	for run := 0; run < 2; run++ {
		if i, ok := firstDiff(want, sc.run(t, false)); !ok {
			t.Fatalf("run %d: grant order diverges from the host model at grant %d", run, i)
		}
	}
}

// TestNondetArbiterSerializes checks the nondeterministic arbiter still
// provides mutual exclusion.
func TestNondetArbiterSerializes(t *testing.T) {
	const n = 8
	a := NewNondet(n)
	if !a.Nondet() {
		t.Fatal("NewNondet returned a deterministic arbiter")
	}
	var inTurn atomic.Int32
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := 0; r < 500; r++ {
				a.WaitTurn(tid)
				if inTurn.Add(1) != 1 {
					t.Errorf("two threads hold the nondet turn simultaneously")
				}
				inTurn.Add(-1)
				a.ReleaseTurn(tid, 1)
			}
		}(tid)
	}
	wg.Wait()
}

// TestTickIsCheapWithoutWaiters checks Tick does not require the mutex when
// nobody waits (it must not deadlock or panic; we just exercise the path).
func TestTickIsCheapWithoutWaiters(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 1)
			for i := 0; i < 1000; i++ {
				a.Tick(0, 1)
			}
			if got := a.DLC(0); got != 1000 {
				t.Fatalf("DLC = %d, want 1000", got)
			}
		})
	}
}

// TestDeadlockDetection: when every non-exited thread parks, the deadlock
// handler fires — the repeatable deadlock broken ad-hoc synchronization
// produces under determinism.
func TestDeadlockDetection(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 3)
			fired := 0
			a.SetDeadlockHandler(func() { fired++ })
			a.Exit(2)
			v.wait(t, a, 0)
			a.Park(0)
			if fired != 0 {
				t.Fatal("deadlock reported while a thread was still runnable")
			}
			v.wait(t, a, 1)
			a.Park(1)
			if fired != 1 {
				t.Fatalf("deadlock handler fired %d times, want 1", fired)
			}
		})
	}
}

// TestNoDeadlockWhenAllExit: clean termination is not a deadlock.
func TestNoDeadlockWhenAllExit(t *testing.T) {
	for _, v := range turnChecks {
		t.Run(v.name, func(t *testing.T) {
			a := v.arbiter(t, 2)
			a.SetDeadlockHandler(func() { t.Fatal("deadlock reported on clean exit") })
			a.Exit(0)
			a.Exit(1)
		})
	}
}
