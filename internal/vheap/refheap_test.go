package vheap

import (
	"fmt"
	"testing"
	"testing/quick"
)

// This file checks the heap against a naive reference model of the
// versioned-memory semantics: one full contents snapshot per commit
// sequence, and views that hold a map from page number to a (twin, words)
// copy. The model knows nothing of bitmaps, page tables, generation stamps,
// frame pools or chain trimming — it merges every word that differs
// from its twin — so it states what the heap must publish, and the heap's
// machinery may only change how that is found.

// refHeap is the reference model of a Heap.
type refHeap struct {
	pageWords int
	snaps     [][]int64 // snaps[seq]: the committed contents after commit seq

	commits, pages, words int64
}

// refView is the reference model of a View.
type refView struct {
	h     *refHeap
	base  int64
	dirty map[int]*refPage
}

// refPage is a model view's private copy of one page.
type refPage struct {
	twin, words []int64
}

// refSnapshot is the model of a DirtySnapshot: a deep copy of the dirty set.
type refSnapshot struct {
	dirty map[int]*refPage
	words int
}

func newRefHeap(words int64, pageWords int) *refHeap {
	return &refHeap{pageWords: pageWords, snaps: [][]int64{make([]int64, words)}}
}

func (m *refHeap) newest() int64 { return int64(len(m.snaps) - 1) }

func (m *refHeap) newView() *refView {
	return &refView{h: m, base: m.newest(), dirty: make(map[int]*refPage)}
}

func (v *refView) split(addr int64) (pi, off int) {
	return int(addr) / v.h.pageWords, int(addr) % v.h.pageWords
}

func (v *refView) load(addr int64) int64 {
	pi, off := v.split(addr)
	if p, ok := v.dirty[pi]; ok {
		return p.words[off]
	}
	return v.h.snaps[v.base][addr]
}

func (v *refView) store(addr, val int64) {
	pi, off := v.split(addr)
	p, ok := v.dirty[pi]
	if !ok {
		lo := pi * v.h.pageWords
		base := v.h.snaps[v.base][lo : lo+v.h.pageWords]
		p = &refPage{twin: append([]int64(nil), base...), words: append([]int64(nil), base...)}
		v.dirty[pi] = p
	}
	p.words[off] = val
}

// storeDirty models StoreDirty's twin flip: a store equal to the twin must
// still merge, so the twin is made to differ.
func (v *refView) storeDirty(addr, val int64) {
	v.store(addr, val)
	pi, off := v.split(addr)
	if p := v.dirty[pi]; p.twin[off] == val {
		p.twin[off] = ^val
	}
}

func (v *refView) dirtyWords() int {
	n := 0
	for _, p := range v.dirty {
		for i := range p.words {
			if p.words[i] != p.twin[i] {
				n++
			}
		}
	}
	return n
}

// commit merges every word that differs from its twin onto the newest
// snapshot, appending the result as the next sequence.
func (v *refView) commit() (seq int64, changed int) {
	m := v.h
	next := append([]int64(nil), m.snaps[m.newest()]...)
	for pi, p := range v.dirty {
		n := 0
		for i := range p.words {
			if p.words[i] != p.twin[i] {
				next[pi*m.pageWords+i] = p.words[i]
				n++
			}
		}
		if n > 0 {
			m.pages++
			changed += n
		}
	}
	m.snaps = append(m.snaps, next)
	m.commits++
	m.words += int64(changed)
	v.base = m.newest()
	clear(v.dirty)
	return v.base, changed
}

func (v *refView) revert() int {
	n := v.dirtyWords()
	clear(v.dirty)
	v.base = v.h.newest()
	return n
}

func (v *refView) update() { v.base = v.h.newest() }

func (v *refView) snapshot() *refSnapshot {
	return &refSnapshot{dirty: copyRefDirty(v.dirty), words: v.dirtyWords()}
}

func (v *refView) revertTo(s *refSnapshot) int {
	n := max(v.dirtyWords()-s.words, 0)
	v.dirty = copyRefDirty(s.dirty)
	return n
}

func copyRefDirty(src map[int]*refPage) map[int]*refPage {
	dst := make(map[int]*refPage, len(src))
	for pi, p := range src {
		dst[pi] = &refPage{twin: append([]int64(nil), p.twin...), words: append([]int64(nil), p.words...)}
	}
	return dst
}

// refPair runs a heap and its reference model side by side: every
// operation is applied to both, and its results compared.
type refPair struct {
	h      *Heap
	m      *refHeap
	words  int64
	views  []*View
	mviews []*refView
}

func newRefPair(words int64, pageWords, views int) *refPair {
	p := &refPair{
		h:     New(words, WithPageWords(pageWords)),
		m:     newRefHeap(words, pageWords),
		words: words,
	}
	for i := 0; i < views; i++ {
		p.views = append(p.views, p.h.NewView())
		p.mviews = append(p.mviews, p.m.newView())
	}
	return p
}

func (p *refPair) store(i int, addr, val int64) {
	p.views[i].Store(addr, val)
	p.mviews[i].store(addr, val)
}

func (p *refPair) storeDirty(i int, addr, val int64) {
	p.views[i].StoreDirty(addr, val)
	p.mviews[i].storeDirty(addr, val)
}

func (p *refPair) commit(i int) error {
	seq, ch := p.views[i].Commit()
	mseq, mch := p.mviews[i].commit()
	if seq != mseq || ch != mch {
		return fmt.Errorf("view %d commit = (seq %d, changed %d), model (%d, %d)", i, seq, ch, mseq, mch)
	}
	return nil
}

func (p *refPair) revert(i int) error {
	if d, md := p.views[i].Revert(), p.mviews[i].revert(); d != md {
		return fmt.Errorf("view %d revert discarded %d words, model %d", i, d, md)
	}
	return nil
}

// update re-bases view i if its dirty set is empty (Update's precondition).
func (p *refPair) update(i int) {
	if p.views[i].DirtyPages() == 0 {
		p.views[i].Update()
		p.mviews[i].update()
	}
}

// speculate snapshots view i's dirty set, stores into it, and reverts to
// the snapshot — the shape of a failed speculation run.
func (p *refPair) speculate(i int, addr, val int64) error {
	s, ms := p.views[i].SnapshotDirty(), p.mviews[i].snapshot()
	if s.Words() != ms.words {
		return fmt.Errorf("view %d snapshot holds %d words, model %d", i, s.Words(), ms.words)
	}
	p.store(i, addr, val)
	if d, md := p.views[i].RevertTo(s), p.mviews[i].revertTo(ms); d != md {
		return fmt.Errorf("view %d RevertTo discarded %d words, model %d", i, d, md)
	}
	return nil
}

// check compares every view's Load of every word, and its dirty counts.
func (p *refPair) check() error {
	for i, v := range p.views {
		mv := p.mviews[i]
		for addr := int64(0); addr < p.words; addr++ {
			if got, want := v.Load(addr), mv.load(addr); got != want {
				return fmt.Errorf("view %d Load(%d) = %d, model %d", i, addr, got, want)
			}
		}
		if got, want := v.DirtyPages(), len(mv.dirty); got != want {
			return fmt.Errorf("view %d dirty pages = %d, model %d", i, got, want)
		}
		if got, want := v.DirtyWords(), mv.dirtyWords(); got != want {
			return fmt.Errorf("view %d dirty words = %d, model %d", i, got, want)
		}
	}
	return nil
}

// final compares the committed contents and the commit statistics.
func (p *refPair) final() error {
	newest := p.m.snaps[p.m.newest()]
	for addr := int64(0); addr < p.words; addr++ {
		if got, want := p.h.ReadCommitted(addr), newest[addr]; got != want {
			return fmt.Errorf("committed word %d = %d, model %d", addr, got, want)
		}
	}
	if err := p.stats(); err != nil {
		return err
	}
	return p.h.Audit()
}

// stats compares the heap's commit statistics with the model's.
func (p *refPair) stats() error {
	st := p.h.Stats()
	if st.Commits != p.m.commits || st.Pages != p.m.pages || st.Words != p.m.words {
		return fmt.Errorf("stats (commits %d, pages %d, words %d), model (%d, %d, %d)",
			st.Commits, st.Pages, st.Words, p.m.commits, p.m.pages, p.m.words)
	}
	return nil
}

// step applies one pseudo-random operation drawn from r to a random view.
func (p *refPair) step(r *uint64) error {
	next := func() uint64 {
		*r = *r*6364136223846793005 + 1442695040888963407
		return *r
	}
	i := int(next()>>33) % len(p.views)
	op := next() >> 60
	addr := int64(next()>>32) % p.words
	// Small values make silent stores (a store of the value already there)
	// common enough to exercise the silent-store rule.
	val := int64(next()>>61) - 2
	switch {
	case op < 7:
		p.store(i, addr, val)
	case op < 9:
		p.storeDirty(i, addr, val)
	case op < 12:
		return p.commit(i)
	case op < 13:
		return p.revert(i)
	case op < 14:
		p.update(i)
	default:
		return p.speculate(i, (addr+1)%p.words, val+1)
	}
	return nil
}

// runRef drives a fresh pair through ops pseudo-random operations,
// comparing after every one, then commits every view and compares the
// committed state.
func runRef(seed uint64, views, ops int) error {
	p := newRefPair(256, 32, views)
	r := seed
	for k := 0; k < ops; k++ {
		if err := p.step(&r); err != nil {
			return fmt.Errorf("op %d: %v", k, err)
		}
		if err := p.check(); err != nil {
			return fmt.Errorf("op %d: %v", k, err)
		}
	}
	for i := range p.views {
		if err := p.commit(i); err != nil {
			return err
		}
	}
	return p.final()
}

// TestQuickFlatMatchesMapViews checks the flat per-view page tables, clean
// cache and frame pools against the model's map-backed views: two to four
// views on one heap go through interleaved stores, silent and forced
// stores, commits, reverts, re-bases and snapshot round trips, and every
// Load, dirty count, commit result and revert count must match the model
// after every operation, and the final contents and commit statistics at
// the end.
func TestQuickFlatMatchesMapViews(t *testing.T) {
	f := func(seed uint64) bool {
		if err := runRef(seed, 2+int(seed%3), 300); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitmapMatchesLegacyDiff checks the dirty-word bitmap commit
// against the model's full-page twin diff, which merges every word that
// differs from its twin: a single view's every commit must publish the
// same (seq, changed) and leave the same Commits/Pages/Words totals as the
// model, and AuditDirty must hold after every operation — the bitmap may
// only change how modified words are found, never which.
func TestQuickBitmapMatchesLegacyDiff(t *testing.T) {
	f := func(seed uint64) bool {
		p := newRefPair(256, 32, 1)
		r := seed
		for k := 0; k < 300; k++ {
			err := p.step(&r)
			if err == nil {
				err = p.check()
			}
			if err == nil {
				err = p.views[0].AuditDirty()
			}
			if err == nil {
				err = p.stats()
			}
			if err != nil {
				t.Logf("seed %d op %d: %v", seed, k, err)
				return false
			}
		}
		err := p.commit(0)
		if err == nil {
			err = p.final()
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReferenceModelCatchesUnmarkedWord is the dirty-tracking mutation
// guard: clearing the dirty bit of a word that differs from its twin — the
// bug that makes the bitmap commit drop a write — must be flagged by both
// the reference-model comparison and AuditDirty, while the unmutated run
// passes both.
func TestReferenceModelCatchesUnmarkedWord(t *testing.T) {
	run := func(mutate bool) (modelErr, auditErr error) {
		p := newRefPair(128, 32, 2)
		p.store(0, 3, 9)
		p.store(0, 40, 7)
		if mutate {
			d := p.views[0].dirtyTab[0]
			d.dirty[0] &^= 1 << 3 // word 3 still differs from its twin
		}
		auditErr = p.views[0].AuditDirty()
		modelErr = p.check()
		if err := p.commit(0); err != nil && modelErr == nil {
			modelErr = err
		}
		p.update(1)
		if err := p.check(); err != nil && modelErr == nil {
			modelErr = err
		}
		return modelErr, auditErr
	}
	if m, a := run(false); m != nil || a != nil {
		t.Fatalf("clean run flagged: model %v, audit %v", m, a)
	}
	m, a := run(true)
	if m == nil {
		t.Error("reference model accepted a modified word with no dirty bit")
	}
	if a == nil {
		t.Error("AuditDirty accepted a modified word with no dirty bit")
	}
}

// TestReferenceModelCatchesStaleCleanCache is the clean-cache mutation
// guard: a re-base that reuses the old generation leaves the pre-re-base
// resolutions valid, so the view keeps reading a superseded page version.
// Both the reference-model comparison and AuditTables must flag it, while
// the unmutated run passes both.
func TestReferenceModelCatchesStaleCleanCache(t *testing.T) {
	run := func(mutate bool) (modelErr, auditErr error) {
		p := newRefPair(128, 32, 2)
		p.views[0].Load(5) // cache page 0 at base 0
		p.store(1, 5, 42)
		if err := p.commit(1); err != nil {
			return err, nil
		}
		gen := p.views[0].gen
		p.update(0)
		if mutate {
			p.views[0].gen = gen
		}
		auditErr = p.views[0].AuditTables()
		modelErr = p.check()
		return modelErr, auditErr
	}
	if m, a := run(false); m != nil || a != nil {
		t.Fatalf("clean run flagged: model %v, audit %v", m, a)
	}
	m, a := run(true)
	if m == nil {
		t.Error("reference model accepted a clean-cache entry surviving a re-base")
	}
	if a == nil {
		t.Error("AuditTables accepted a clean-cache entry surviving a re-base")
	}
}
