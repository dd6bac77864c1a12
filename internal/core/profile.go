// Engine-phase pprof labels: when profiling is on, CPU samples taken inside
// the synchronization machinery are tagged with the phase they fell in —
//
//	engine_phase=grant      arbiter election and turn waiting
//	engine_phase=commit     publication: eager commits, staged (elided)
//	                        publications, and the stage flushes they imply
//	engine_phase=validate   speculation conflict validation
//
// so a -cpuprofile from lazydet-run/-bench/-sim can attribute sync-machinery
// time to the phase the elision work targets (`go tool pprof -tagfocus
// engine_phase=commit`). Labeling costs two goroutine-label stores per
// labeled region (the labeled contexts are built once, so nothing
// allocates), and it is off unless a front end that is actually writing a
// profile calls EnableProfileLabels; disabled, each site is one atomic load
// and a no-op call.
package core

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

var profilePhases atomic.Bool

// EnableProfileLabels turns on engine-phase pprof labels process-wide. The
// CLI front ends call it when -cpuprofile is given; there is no way to turn
// labels off again (profiles are one-shot per process).
func EnableProfileLabels() { profilePhases.Store(true) }

// phase names an engine phase for profile labels.
type phase int

const (
	phaseGrant phase = iota
	phaseCommit
	phaseValidate
)

// phaseCtx holds each phase's labeled context, built once so that entering
// a labeled region allocates nothing.
var phaseCtx = [...]context.Context{
	phaseGrant:    pprof.WithLabels(context.Background(), pprof.Labels("engine_phase", "grant")),
	phaseCommit:   pprof.WithLabels(context.Background(), pprof.Labels("engine_phase", "commit")),
	phaseValidate: pprof.WithLabels(context.Background(), pprof.Labels("engine_phase", "validate")),
}

var noPhase = func() {}

// phaseBegin tags the calling goroutine's CPU samples with engine phase p
// until the returned func runs. Typical use: defer phaseBegin(phaseGrant)().
func phaseBegin(p phase) func() {
	if !profilePhases.Load() {
		return noPhase
	}
	pprof.SetGoroutineLabels(phaseCtx[p])
	return clearPhase
}

func clearPhase() { pprof.SetGoroutineLabels(context.Background()) }
