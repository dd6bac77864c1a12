package vheap

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestLoadStoreIsolation(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	b := h.NewView()
	a.Store(10, 42)
	if got := a.Load(10); got != 42 {
		t.Fatalf("a.Load(10) = %d, want 42 (own write must be visible)", got)
	}
	if got := b.Load(10); got != 0 {
		t.Fatalf("b.Load(10) = %d, want 0 (uncommitted write leaked)", got)
	}
	a.Commit()
	if got := b.Load(10); got != 0 {
		t.Fatalf("b.Load(10) = %d, want 0 (b has not updated)", got)
	}
	b.Update()
	if got := b.Load(10); got != 42 {
		t.Fatalf("b.Load(10) after Update = %d, want 42", got)
	}
}

func TestCommitMergesWordLevel(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	b := h.NewView()
	// Same page (page size 256 words), disjoint words.
	a.Store(0, 1)
	b.Store(1, 2)
	a.Commit()
	b.Commit()
	c := h.NewView()
	if got := c.Load(0); got != 1 {
		t.Fatalf("word 0 = %d, want 1 (a's write lost in merge)", got)
	}
	if got := c.Load(1); got != 2 {
		t.Fatalf("word 1 = %d, want 2 (b's write lost in merge)", got)
	}
}

func TestCommitLastWriterWinsSameWord(t *testing.T) {
	h := New(64, WithPageWords(16))
	a := h.NewView()
	b := h.NewView()
	a.Store(5, 111)
	b.Store(5, 222)
	a.Commit()
	b.Commit() // later commit wins the word
	if got := h.ReadCommitted(5); got != 222 {
		t.Fatalf("word 5 = %d, want 222 (commit order must decide)", got)
	}
}

// TestSilentStoreLost documents the word-tearing limitation the paper
// inherits from RFDet (§4): a store of the value already present produces no
// diff and does not overwrite a concurrent committed change.
func TestSilentStoreLost(t *testing.T) {
	h := New(64, WithPageWords(16))
	h.SetInitial(3, 7)
	a := h.NewView()
	b := h.NewView()
	a.Store(3, 7) // silent: same value as the twin
	b.Store(3, 9)
	b.Commit()
	a.Commit()
	if got := h.ReadCommitted(3); got != 9 {
		t.Fatalf("word 3 = %d, want 9 (silent store must not generate a diff)", got)
	}
}

func TestRevertDiscardsChanges(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	a.Store(100, 5)
	a.Store(101, 6)
	if n := a.DirtyWords(); n != 2 {
		t.Fatalf("DirtyWords = %d, want 2", n)
	}
	if n := a.Revert(); n != 2 {
		t.Fatalf("Revert discarded %d words, want 2", n)
	}
	if got := a.Load(100); got != 0 {
		t.Fatalf("after revert Load(100) = %d, want 0", got)
	}
	if h.Seq() != 0 {
		t.Fatalf("revert must not commit; seq = %d", h.Seq())
	}
}

func TestRevertRebasesToLatest(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	b := h.NewView()
	a.Store(7, 70)
	b.Store(8, 80)
	b.Commit()
	a.Revert()
	if got := a.Load(8); got != 80 {
		t.Fatalf("after revert, Load(8) = %d, want 80 (heap must update to newest committed version)", got)
	}
}

func TestSnapshotReadsOldVersionWhileOthersCommit(t *testing.T) {
	h := New(1024)
	h.SetInitial(0, 1)
	a := h.NewView() // bases at the initial state
	b := h.NewView()
	for i := 0; i < 10; i++ {
		b.Store(0, int64(100+i))
		b.Commit()
	}
	if got := a.Load(0); got != 1 {
		t.Fatalf("a.Load(0) = %d, want 1 (snapshot isolation violated)", got)
	}
	a.Update()
	if got := a.Load(0); got != 109 {
		t.Fatalf("after update a.Load(0) = %d, want 109", got)
	}
}

func TestTrimmedChainsStayBounded(t *testing.T) {
	h := New(256, WithPageWords(16)) // 16 pages
	v := h.NewView()
	for i := 0; i < 1000; i++ {
		v.Store(0, int64(i))
		v.Commit()
	}
	// One live view, always re-based at commit: the chain for page 0
	// should hold the head plus at most a short tail.
	if n := h.LiveVersions(); n > 16+4 {
		t.Fatalf("LiveVersions = %d after 1000 commits; trimming is not working", n)
	}
}

func TestFullChainsRetainHistory(t *testing.T) {
	h := New(256, WithPageWords(16), WithFullVersionChains())
	v := h.NewView()
	for i := 0; i < 50; i++ {
		v.Store(0, int64(i))
		v.Commit()
	}
	if n := h.LiveVersions(); n < 50 {
		t.Fatalf("LiveVersions = %d, want >= 50 with full chains", n)
	}
}

func TestHashDetectsDifferences(t *testing.T) {
	h1 := New(1024)
	h2 := New(1024)
	if h1.Hash() != h2.Hash() {
		t.Fatal("identical heaps hash differently")
	}
	v := h1.NewView()
	v.Store(512, 1)
	v.Commit()
	if h1.Hash() == h2.Hash() {
		t.Fatal("different heaps hash identically")
	}
}

func TestSetInitialVisibleToViews(t *testing.T) {
	h := New(1024)
	h.SetInitial(33, 99)
	v := h.NewView()
	if got := v.Load(33); got != 99 {
		t.Fatalf("Load(33) = %d, want 99", got)
	}
}

func TestUpdatePanicsWithDirtyPages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Update with dirty pages must panic (engine protocol violation)")
		}
	}()
	h := New(64, WithPageWords(16))
	v := h.NewView()
	v.Store(0, 1)
	v.Update()
}

// TestQuickViewMatchesFlatMemory is a property test: a single view's
// load/store/commit/update behaviour must match a flat array, for random
// operation sequences.
func TestQuickViewMatchesFlatMemory(t *testing.T) {
	f := func(ops []uint16, seed uint8) bool {
		const words = 128
		h := New(words, WithPageWords(16))
		v := h.NewView()
		ref := make([]int64, words)
		val := int64(seed) + 1
		for _, op := range ops {
			addr := int64(op % words)
			switch (op / words) % 3 {
			case 0:
				v.Store(addr, val)
				ref[addr] = val
				val++
			case 1:
				if v.Load(addr) != ref[addr] {
					return false
				}
			case 2:
				v.Commit()
				v.Update()
			}
		}
		for a := int64(0); a < words; a++ {
			if v.Load(a) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeDisjointWriters is a property test: concurrent committers
// writing disjoint word sets must all survive the merge.
func TestQuickMergeDisjointWriters(t *testing.T) {
	f := func(vals [4]int64) bool {
		h := New(64, WithPageWords(16))
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v := h.NewView()
				v.Store(int64(i), vals[i]|1) // |1 keeps it nonzero and non-silent
				v.Commit()
			}(i)
		}
		wg.Wait()
		for i := 0; i < 4; i++ {
			if h.ReadCommitted(int64(i)) != vals[i]|1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountCommits(t *testing.T) {
	h := New(1024)
	v := h.NewView()
	v.Store(0, 1)
	v.Store(300, 2) // second page
	v.Commit()
	st := h.Stats()
	if st.Commits != 1 || st.Pages != 2 || st.Words != 2 {
		t.Fatalf("Stats = (%d,%d,%d), want (1,2,2)", st.Commits, st.Pages, st.Words)
	}
	// Under dirty tracking, finding 2 changed words costs examining exactly
	// the 2 marked words.
	if st.WordsScanned != 2 {
		t.Fatalf("WordsScanned = %d, want 2 (commit work must be proportional to dirty words)", st.WordsScanned)
	}
}

// TestQuickConcurrentViewsStress hammers the heap with concurrent views
// performing random store/commit/revert/update sequences on disjoint
// address ranges, then checks every view's writes survived exactly. Stores
// run concurrently; NewView, Commit, Update, Revert and Close run under
// turn, the mutex that stands in for the deterministic turn View.Commit's
// contract requires.
func TestQuickConcurrentViewsStress(t *testing.T) {
	f := func(seed uint64) bool {
		const goroutines = 4
		const perRange = 64
		h := New(goroutines*perRange, WithPageWords(32))
		var wg sync.WaitGroup
		var turn sync.Mutex
		locked := func(op func()) {
			turn.Lock()
			defer turn.Unlock()
			op()
		}
		expected := make([][]int64, goroutines)
		for g := 0; g < goroutines; g++ {
			expected[g] = make([]int64, perRange)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := seed + uint64(g)*977
				next := func(n uint64) uint64 {
					r = r*6364136223846793005 + 1442695040888963407
					return (r >> 33) % n
				}
				var v *View
				locked(func() { v = h.NewView() })
				defer locked(func() { v.Close() })
				base := int64(g * perRange)
				pending := map[int64]int64{}
				for i := 0; i < 200; i++ {
					switch next(10) {
					case 0: // revert: discard pending
						locked(func() { v.Revert() })
						pending = map[int64]int64{}
					case 1, 2: // commit: pending becomes durable
						locked(func() { v.Commit() })
						for a, val := range pending {
							expected[g][a-base] = val
						}
						pending = map[int64]int64{}
					case 3:
						if len(pending) == 0 {
							locked(v.Update) // only legal with a clean dirty set
						}
					default:
						a := base + int64(next(perRange))
						val := int64(next(1000)) + 1
						v.Store(a, val)
						pending[a] = val
					}
				}
				locked(func() { v.Commit() })
				for a, val := range pending {
					expected[g][a-base] = val
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			for off, want := range expected[g] {
				if got := h.ReadCommitted(int64(g*perRange + off)); got != want {
					t.Logf("seed %x: word (%d,%d) = %d, want %d", seed, g, off, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDirtyForcesMerge: a StoreDirty of the base value still wins the
// commit merge.
func TestStoreDirtyForcesMerge(t *testing.T) {
	h := New(64, WithPageWords(16))
	h.SetInitial(3, 7)
	a := h.NewView()
	b := h.NewView()
	b.Store(3, 9)
	b.Commit()         // committed value now 9
	a.StoreDirty(3, 7) // equals a's (stale) base: must still merge
	a.Commit()
	if got := h.ReadCommitted(3); got != 7 {
		t.Fatalf("word 3 = %d, want 7 (StoreDirty must not be silent)", got)
	}
}

// TestShardTrimFloorsMonotone pins the trim-floor invariant: as views
// commit, re-base and close, the floor trims use never decreases, never
// exceeds the newest committed sequence, and never passes a live base.
func TestShardTrimFloorsMonotone(t *testing.T) {
	h := New(1024, WithPageWords(16))
	prev := h.TrimFloor()
	check := func(stage string) {
		cur := h.TrimFloor()
		if cur < prev {
			t.Fatalf("%s: trim floor went backwards: %d -> %d", stage, prev, cur)
		}
		if cur > h.Seq() {
			t.Fatalf("%s: trim floor %d ahead of newest commit %d", stage, cur, h.Seq())
		}
		if err := h.Audit(); err != nil { // the floor must also stay at or below the live bases
			t.Fatalf("%s: %v", stage, err)
		}
		prev = cur
	}

	a := h.NewView()
	b := h.NewView()
	for round := 0; round < 8; round++ {
		for pi := 0; pi < 64; pi += 3 {
			a.Store(int64(pi*16), int64(round))
		}
		a.Commit()
		check("after a.Commit")
		b.Update() // b's base advances: the floor may rise
		for pi := 1; pi < 64; pi += 5 {
			b.Store(int64(pi*16), int64(-round))
		}
		b.Commit()
		check("after b.Commit")
		a.Update()
	}
	b.Close()
	check("after b.Close")
	// With only one live view at the newest base, another commit trims
	// every touched chain up to that base.
	for pi := 0; pi < 64; pi++ {
		a.Store(int64(pi*16+1), 7)
	}
	a.Commit()
	check("after full-heap commit")
	a.Close()
}

// TestShardPoolsRecycleFrames checks trimming refills the heap's
// published-page pool: steady-state commits on a trimmed heap reuse frames
// rather than allocating fresh pages without bound.
func TestShardPoolsRecycleFrames(t *testing.T) {
	h := New(1024, WithPageWords(16))
	v := h.NewView()
	for round := 0; round < 50; round++ {
		for pi := 0; pi < 64; pi++ {
			v.Store(int64(pi*16), int64(round))
		}
		v.Commit()
	}
	// One live view at the newest base: every chain should have been
	// trimmed to ~1 version + the shared zero tail.
	if live := h.LiveVersions(); live > 2*64 {
		t.Fatalf("%d live versions after steady-state commits on 64 pages; trimming is not recycling", live)
	}
	h.mu.Lock()
	pooled := len(h.pagePool)
	h.mu.Unlock()
	if pooled == 0 {
		t.Fatal("no frames in the page pool after heavy trimming")
	}
	v.Close()
}
