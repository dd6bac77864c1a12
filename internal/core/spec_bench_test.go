package core

import (
	"fmt"
	"testing"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/vheap"
)

// BenchmarkSpecBookkeeping measures the speculation log on its own: one op is
// a run that acquires k of 1024 locks (nested, so all k land in one run),
// releases them and commits. Every lock guards one store, so the commit
// publishes k words. The locks are spread over the table the way a hash
// table's bucket locks are, so the per-lock rows are touched sparsely.
//
//	go test -run NONE -bench SpecBookkeeping -benchmem ./internal/core
func BenchmarkSpecBookkeeping(b *testing.B) {
	const nlocks = 1024
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			locks := make([]int64, k)
			for i := range locks {
				locks[i] = int64(i*(nlocks/k)+i*7) % nlocks
			}
			tbl := detsync.NewTable(1, nlocks, 1, 0, true)
			e := New(lazyCfg(), Deps{Arb: dlc.New(1), Tbl: tbl, Heap: vheap.New(nlocks)})
			op := func(th *dvm.Thread, val int64) {
				for _, l := range locks {
					e.Lock(th, l)
					th.Mem.Store(l, val)
				}
				for i := len(locks) - 1; i >= 0; i-- {
					e.Unlock(th, locks[i])
				}
				e.CondSignal(th, 0) // terminates the run: validate and commit
			}
			p := dvm.NewBuilder("bookkeeping")
			p.Do(func(th *dvm.Thread) {
				for i := 0; i < 16; i++ {
					op(th, int64(i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(th, int64(i))
				}
				b.StopTimer()
			})
			dvm.Run(e, []*dvm.Program{p.Build()})
		})
	}
}
