package core

import (
	"runtime/pprof"
	"testing"
)

// TestPhaseBeginAllocFree checks that entering and leaving a labeled engine
// phase allocates nothing with labels enabled: the labeled contexts are
// built once, not per turn.
func TestPhaseBeginAllocFree(t *testing.T) {
	profilePhases.Store(true)
	defer profilePhases.Store(false)
	for _, p := range []phase{phaseGrant, phaseCommit, phaseValidate} {
		if n := testing.AllocsPerRun(100, func() { phaseBegin(p)() }); n != 0 {
			t.Errorf("phaseBegin(%d)() allocates %.1f times per call, want 0", p, n)
		}
	}
}

// TestPhaseLabels checks that each phase's context carries the
// engine_phase label it names.
func TestPhaseLabels(t *testing.T) {
	for p, want := range map[phase]string{phaseGrant: "grant", phaseCommit: "commit", phaseValidate: "validate"} {
		if got, _ := pprof.Label(phaseCtx[p], "engine_phase"); got != want {
			t.Errorf("phase %d labeled %q, want %q", p, got, want)
		}
	}
}
