package dlc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// script is a per-thread turn-taking loop for n threads: before its k-th
// turn thread i ticks tick[i][k], and it releases that turn with cost
// rel[i][k]. After its last turn the thread exits.
type script struct {
	tick, rel [][]int64
}

// newScript builds an n-thread, rounds-deep script from f(tid, round),
// which returns the tick before and the release cost of that turn.
func newScript(n, rounds int, f func(tid, round int) (tick, rel int64)) script {
	sc := script{tick: make([][]int64, n), rel: make([][]int64, n)}
	for i := 0; i < n; i++ {
		for k := 0; k < rounds; k++ {
			tk, rl := f(i, k)
			sc.tick[i] = append(sc.tick[i], tk)
			sc.rel[i] = append(sc.rel[i], rl)
		}
	}
	return sc
}

// model computes the grant sequence on the host: every thread's next
// request is at its clock after the pre-turn tick, and the turn always goes
// to the minimum (clock, tid) among threads with turns left — the turn
// predicate over true clocks, evaluated sequentially. highTidFirst swaps the
// tie-break, giving the sequence a tie-break-swapped arbiter would grant.
func (sc script) model(highTidFirst bool) []int {
	n := len(sc.tick)
	clock := make([]int64, n)
	round := make([]int, n)
	left := 0
	for i := 0; i < n; i++ {
		if len(sc.tick[i]) > 0 {
			clock[i] = sc.tick[i][0]
			left++
		}
	}
	var grants []int
	for left > 0 {
		best := -1
		for i := 0; i < n; i++ {
			if round[i] >= len(sc.tick[i]) {
				continue
			}
			if best == -1 || clock[i] < clock[best] || (clock[i] == clock[best] && highTidFirst) {
				best = i
			}
		}
		grants = append(grants, best)
		clock[best] += sc.rel[best][round[best]]
		round[best]++
		if round[best] == len(sc.tick[best]) {
			left--
		} else {
			clock[best] += sc.tick[best][round[best]]
		}
	}
	return grants
}

// run drives a live arbiter through the script, one goroutine per thread,
// and returns the grant sequence. With audit set, the grantee checks
// AuditTurn and AuditTree at every grant.
func (sc script) run(t *testing.T, audit bool) []int {
	n := len(sc.tick)
	a := New(n)
	var mu sync.Mutex
	var grants []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for k := range sc.tick[tid] {
				a.Tick(tid, sc.tick[tid][k])
				a.WaitTurn(tid)
				mu.Lock()
				grants = append(grants, tid)
				mu.Unlock()
				if audit {
					if err := a.AuditTurn(tid); err != nil {
						t.Errorf("grant to thread %d: %v", tid, err)
					}
					if err := a.AuditTree(); err != nil {
						t.Errorf("grant to thread %d: %v", tid, err)
					}
				}
				a.ReleaseTurn(tid, sc.rel[tid][k])
			}
			a.Exit(tid)
		}(i)
	}
	wg.Wait()
	return grants
}

// firstDiff compares two grant sequences, returning the index of the first
// difference (or the shorter length) and whether they are equal.
func firstDiff(want, got []int) (int, bool) {
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			return i, false
		}
	}
	return len(want), len(want) == len(got)
}

// TestQuickGrantOrderMatchesModel verifies the arbiter against the host
// model: each seed picks a thread count (2–16) and per-thread scripted
// costs, and the live arbiter — under real goroutine scheduling, audited
// at every grant — must produce exactly the model's grant sequence.
func TestQuickGrantOrderMatchesModel(t *testing.T) {
	f := func(seed uint64) bool {
		r := seed
		next := func(n uint64) uint64 {
			r = r*6364136223846793005 + 1442695040888963407
			return (r >> 33) % n
		}
		n := 2 + int(next(15))
		sc := newScript(n, 30, func(_, _ int) (int64, int64) {
			return int64(next(20)) + 1, int64(next(5)) + 1
		})
		want, got := sc.model(false), sc.run(t, true)
		if i, ok := firstDiff(want, got); !ok {
			t.Logf("seed %x (%d threads): grant %d differs\nmodel:   %v\narbiter: %v", seed, n, i, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHostModelCatchesSwappedTieBreak is the tie-break mutation guard: on a
// script where every request ties on clock, the grant sequence an arbiter
// with the (DLC, tid) tie-break swapped would produce differs from the
// model's, so the model comparison rejects it — and the live arbiter
// matches the unswapped model.
func TestHostModelCatchesSwappedTieBreak(t *testing.T) {
	sc := newScript(4, 5, func(_, _ int) (int64, int64) { return 1, 1 })
	want := sc.model(false)
	if _, ok := firstDiff(want, sc.model(true)); ok {
		t.Fatal("the model comparison accepts a tie-break-swapped grant sequence")
	}
	if i, ok := firstDiff(want, sc.run(t, true)); !ok {
		t.Fatalf("grant %d: the arbiter diverges from the model on an all-ties script", i)
	}
}

// TestAuditsCatchLeadingPublishedKey is the stale-key mutation guard: a
// published key that leads its thread's true clock makes the tree rank a
// runner later than it is, so a waiter behind it is granted too early. The
// bug is injected from test code into the tree state; AuditTree must flag
// the leading key, AuditTurn the early grant, and the grant sequence must
// diverge from the host model's. The same interleaving without the
// injection passes all three checks.
func TestAuditsCatchLeadingPublishedKey(t *testing.T) {
	// Thread 0 takes the first turn at DLC 0 and releases at 50; thread 2
	// then requests at 10 while thread 1 still runs at 0 and later requests
	// at 5. The model grants 0, 1, 2.
	sc := script{
		tick: [][]int64{{0}, {5}, {10}},
		rel:  [][]int64{{50}, {1}, {1}},
	}
	run := func(mutate bool) (grants []int, treeErr, turnErr error) {
		a := New(3)
		a.WaitTurn(0)
		grants = append(grants, 0)
		if mutate {
			a.mu.Lock()
			a.pub[1] = a.slots[1].dlc.Load() + 1000
			a.replayLocked(a.minTree, 1, true)
			a.mu.Unlock()
		}
		treeErr = a.AuditTree()
		a.ReleaseTurn(0, 50)
		a.Exit(0)
		var mu sync.Mutex
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.Tick(2, 10)
			a.WaitTurn(2)
			mu.Lock()
			grants = append(grants, 2)
			mu.Unlock()
			if err := a.AuditTurn(2); err != nil && turnErr == nil {
				turnErr = err
			}
			a.ReleaseTurn(2, 1)
			a.Exit(2)
		}()
		// Let thread 2 either block behind thread 1 (clean) or be granted
		// past it (mutant) before thread 1 requests.
		for st := a.Status(2); st != StatusWaiting && st != StatusExited; st = a.Status(2) {
			runtime.Gosched()
		}
		a.Tick(1, 5)
		a.WaitTurn(1)
		mu.Lock()
		grants = append(grants, 1)
		mu.Unlock()
		a.ReleaseTurn(1, 1)
		a.Exit(1)
		<-done
		return grants, treeErr, turnErr
	}

	want := sc.model(false)
	grants, treeErr, turnErr := run(false)
	if treeErr != nil || turnErr != nil {
		t.Fatalf("clean run flagged: tree %v, turn %v", treeErr, turnErr)
	}
	if i, ok := firstDiff(want, grants); !ok {
		t.Fatalf("clean run: grant %d differs from the model (%v vs %v)", i, grants, want)
	}

	grants, treeErr, turnErr = run(true)
	if treeErr == nil {
		t.Error("AuditTree accepted a published key leading its thread's true clock")
	}
	if turnErr == nil {
		t.Error("AuditTurn accepted a grant past a running thread with a lower clock")
	}
	if _, ok := firstDiff(want, grants); ok {
		t.Errorf("mutant grant sequence %v still matches the model", grants)
	}
}
