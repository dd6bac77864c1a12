package harness_test

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"lazydet/internal/core"
	"lazydet/internal/harness"
	"lazydet/internal/invariant"
	"lazydet/internal/randprog"
)

// auditedRun runs w with the invariant audit layer on and returns the result
// and every violation it reported.
func auditedRun(w *harness.Workload, opt harness.Options) (*harness.Result, []*invariant.Violation, error) {
	var mu sync.Mutex
	var violations []*invariant.Violation
	opt.CheckInvariants = true
	opt.OnViolation = func(v *invariant.Violation) {
		mu.Lock()
		violations = append(violations, v)
		mu.Unlock()
	}
	res, err := harness.Run(w, opt)
	return res, violations, err
}

// commitPathConfigs are the strong deterministic engines the commit-path
// quickchecks run random corpus programs under.
func commitPathConfigs(threads int) []struct {
	name string
	opt  harness.Options
} {
	return []struct {
		name string
		opt  harness.Options
	}{
		{"Consequence", harness.Options{Engine: harness.Consequence, Threads: threads, Trace: true}},
		{"LazyDet", harness.Options{Engine: harness.LazyDet, Threads: threads, Trace: true}},
		{"LazyDet-WriteAware", harness.Options{
			Engine: harness.LazyDet, Threads: threads, Trace: true,
			Spec: core.SpecConfig{WriteAware: true},
		}},
	}
}

// quickAuditedCommitPath runs random corpus programs under each strong
// engine twice with the audit layer on. Each run must report no violation
// and pass the program's own final-memory check (Run applies it), the two
// runs must agree on trace and final heap, and same must accept the pair.
func quickAuditedCommitPath(t *testing.T, same func(r1, r2 *harness.Result) error) {
	const threads = 3
	configs := commitPathConfigs(threads)
	f := func(seed uint64) bool {
		w, _, err := randprog.Generate(seed, randprog.DefaultConfig(threads))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		for _, c := range configs {
			var runs [2]*harness.Result
			for i := range runs {
				res, violations, err := auditedRun(w, c.opt)
				if err != nil {
					t.Logf("seed %x %s run %d: %v", seed, c.name, i+1, err)
					return false
				}
				if len(violations) != 0 {
					t.Logf("seed %x %s run %d: %d violation(s), first: %v", seed, c.name, i+1, len(violations), violations[0])
					return false
				}
				runs[i] = res
			}
			r1, r2 := runs[0], runs[1]
			if r1.HeapHash != r2.HeapHash || r1.TraceSig != r2.TraceSig {
				t.Logf("seed %x %s: heap %x/%x trace %x/%x across reruns",
					seed, c.name, r1.HeapHash, r2.HeapHash, r1.TraceSig, r2.TraceSig)
				return false
			}
			if err := same(r1, r2); err != nil {
				t.Logf("seed %x %s: %v", seed, c.name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitmapCommitMatchesLegacyDiff checks the dirty-word commit path
// end to end against the full-page twin diff: with the audit layer on,
// every publication re-scans each dirty page against its twin and reports
// any modified word missing from the bitmap (commit-dirty-tracking). The
// bitmap walk must also never count a committed word it did not scan, and
// a rerun must commit the same words.
func TestQuickBitmapCommitMatchesLegacyDiff(t *testing.T) {
	quickAuditedCommitPath(t, func(r1, r2 *harness.Result) error {
		if r1.WordsCommitted > r1.WordsScanned {
			return fmt.Errorf("committed %d words but scanned only %d", r1.WordsCommitted, r1.WordsScanned)
		}
		if r1.WordsCommitted != r2.WordsCommitted {
			return fmt.Errorf("committed %d words, rerun %d", r1.WordsCommitted, r2.WordsCommitted)
		}
		return nil
	})
}

// TestQuickFlatViewsMatchMapViews checks the flat per-view page tables and
// their frame/page pools end to end: with the audit layer on, every
// publication cross-checks the dense dirty table against a map of the
// dirty index, clean-cache stamps against a fresh version-chain
// resolution, and pooled frames for residue or aliasing (view-page-table).
// Frame recycling may only change where pages live, never which commit or
// how much work finds them, so a rerun must match every commit statistic.
func TestQuickFlatViewsMatchMapViews(t *testing.T) {
	quickAuditedCommitPath(t, func(r1, r2 *harness.Result) error {
		if r1.Commits != r2.Commits || r1.PagesCommitted != r2.PagesCommitted ||
			r1.WordsCommitted != r2.WordsCommitted || r1.WordsScanned != r2.WordsScanned {
			return fmt.Errorf("commits %d/%d pages %d/%d words %d/%d scanned %d/%d across reruns",
				r1.Commits, r2.Commits, r1.PagesCommitted, r2.PagesCommitted,
				r1.WordsCommitted, r2.WordsCommitted, r1.WordsScanned, r2.WordsScanned)
		}
		return nil
	})
}
