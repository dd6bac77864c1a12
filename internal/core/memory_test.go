package core

import (
	"strings"
	"testing"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/shmem"
	"lazydet/internal/vheap"
)

// Both memory substrates serve the VM's loads and stores directly.
var (
	_ dvm.MemWindow = (*vheap.View)(nil)
	_ dvm.MemWindow = (*shmem.Mem)(nil)
)

// TestNewRejectsInconsistentConfig: New panics on a configuration that pairs
// a mode with the wrong memory. Speculation on flat memory is the case that
// matters most: without write isolation a failed run could not be rolled
// back, and this panic is the only guard against it.
func TestNewRejectsInconsistentConfig(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		heap bool
		mem  bool
		want string
	}{
		{"speculation in weak mode", Config{Mode: ModeWeak, Speculation: true}, false, true, "speculation requires ModeStrong"},
		{"strong mode without heap", Config{Mode: ModeStrong}, false, true, "requires a versioned heap"},
		{"weak mode without memory", Config{Mode: ModeWeak}, true, false, "require direct shared memory"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := Deps{Arb: dlc.New(1), Tbl: detsync.NewTable(1, 1, 0, 0, c.cfg.Speculation)}
			if c.heap {
				d.Heap = vheap.New(64)
			}
			if c.mem {
				d.Mem = shmem.New(64)
			}
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, c.want) {
					t.Fatalf("New panicked with %v, want a message containing %q", r, c.want)
				}
			}()
			New(c.cfg, d)
		})
	}
}

// TestPublishVersioned: in strong mode publication commits the thread's view.
// With no writes it publishes nothing; after a store the word stays invisible
// to committed state until the publish, which commits it at sequence 1.
func TestPublishVersioned(t *testing.T) {
	r := newRig(t, Config{Mode: ModeStrong}, 1, 64, 0, 0, 0)
	e := r.eng
	p := dvm.NewBuilder("publish")
	p.Do(func(th *dvm.Thread) {
		ts := e.ts(th)
		if ts.view == nil || th.Mem != dvm.MemWindow(ts.view) {
			t.Fatal("strong-mode thread does not load and store through its view")
		}
		if e.publish(th, ts); e.seq() != 0 {
			t.Fatalf("publish with no writes committed (seq %d)", e.seq())
		}
		th.Mem.Store(5, 7)
		if ts.view.DirtyPages() == 0 {
			t.Fatal("view not dirty after a store")
		}
		if got := r.heap.ReadCommitted(5); got != 0 {
			t.Fatalf("unpublished store visible: ReadCommitted(5) = %d, want 0", got)
		}
		if e.publish(th, ts); e.seq() != 1 {
			t.Fatalf("publish after a store: seq %d, want a commit at 1", e.seq())
		}
		if got := r.heap.ReadCommitted(5); got != 7 {
			t.Fatalf("ReadCommitted(5) = %d after publication, want 7", got)
		}
	})
	dvm.Run(e, []*dvm.Program{p.Build()})
}

// TestPublishFlat: in the weak modes a thread has no view, stores are global
// at once, publication commits nothing and the sequence stays 0.
func TestPublishFlat(t *testing.T) {
	r := newRig(t, Config{Mode: ModeWeak}, 1, 64, 0, 0, 0)
	e := r.eng
	p := dvm.NewBuilder("publish")
	p.Do(func(th *dvm.Thread) {
		ts := e.ts(th)
		if ts.view != nil {
			t.Fatal("weak-mode thread has a versioned view")
		}
		th.Mem.Store(5, 7)
		if got := r.mem.ReadCommitted(5); got != 7 {
			t.Fatalf("flat store not visible at once: ReadCommitted(5) = %d, want 7", got)
		}
		if e.publish(th, ts); e.seq() != 0 {
			t.Fatalf("flat publish committed (seq %d)", e.seq())
		}
	})
	dvm.Run(e, []*dvm.Program{p.Build()})
}
