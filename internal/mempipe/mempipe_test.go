package mempipe

import (
	"testing"

	"lazydet/internal/shmem"
	"lazydet/internal/vheap"
)

// TestFlatPipelineIsDegenerate checks the flat pipeline's answers: sequence
// 0, one shard, nothing to publish, stores visible at once — and the
// speculation methods panic, because speculation without write isolation
// cannot be rolled back.
func TestFlatPipelineIsDegenerate(t *testing.T) {
	p := NewFlat(shmem.New(64))
	th := p.NewThread(0)
	if got := p.Seq(); got != 0 {
		t.Fatalf("Seq() = %d, want 0", got)
	}
	if got := p.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}
	th.Store(5, 7)
	if got := p.ReadCommitted(5); got != 7 {
		t.Fatalf("flat store not visible at once: ReadCommitted(5) = %d, want 7", got)
	}
	if seq, ok := th.Publish(); seq != 0 || ok {
		t.Fatalf("Publish() = (%d, %v), want (0, false)", seq, ok)
	}
	if th.Dirty() {
		t.Fatal("flat window reports dirty")
	}
	for name, f := range map[string]func(){
		"SnapshotDirty":     func() { th.SnapshotDirty() },
		"SnapshotDirtyInto": func() { th.SnapshotDirtyInto(nil) },
		"RevertTo":          func() { th.RevertTo(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on flat memory did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestVersionedPipelinePublishes checks the versioned pipeline's
// publication: with no writes Publish publishes nothing; after a Store it
// advances the sequence and the value becomes committed state, which a
// second window sees after a refresh.
func TestVersionedPipelinePublishes(t *testing.T) {
	p := NewVersioned(vheap.New(64, vheap.WithPageWords(16)), nil)
	a, b := p.NewThread(0), p.NewThread(1)
	if seq, ok := a.Publish(); seq != 0 || ok {
		t.Fatalf("Publish() with no writes = (%d, %v), want (0, false)", seq, ok)
	}
	a.Store(5, 7)
	if !a.Dirty() {
		t.Fatal("window not dirty after a store")
	}
	if got := p.ReadCommitted(5); got != 0 {
		t.Fatalf("unpublished store visible: ReadCommitted(5) = %d, want 0", got)
	}
	seq, ok := a.Publish()
	if !ok || seq != 1 || p.Seq() != 1 {
		t.Fatalf("Publish() = (%d, %v) with Seq() = %d, want (1, true) and 1", seq, ok, p.Seq())
	}
	if got := p.ReadCommitted(5); got != 7 {
		t.Fatalf("ReadCommitted(5) = %d after publication, want 7", got)
	}
	if got := b.Load(5); got != 0 {
		t.Fatalf("window b sees %d before refreshing, want its base's 0", got)
	}
	b.Refresh()
	if got := b.Load(5); got != 7 {
		t.Fatalf("window b sees %d after refreshing, want 7", got)
	}
	a.Close()
	b.Close()
}
