package btree

import (
	"ahi/internal/core"
	"ahi/internal/obs"
)

// Flight-recorder integration. There is one access path. When the attached
// Observability bundle has tracing enabled (obs.EnableTracing), a Session
// binds the tree's per-source OpRecorder scope, and each of its seven
// operations brackets its one body with beginOp and finishOp; in between
// the body hands the operation's event — the probe — to the stages it
// runs through, and each stage leaves what it counted in it: the cache
// probe whether its bucket was torn, descend and moveRightLeaf the levels and
// B-link right-hops, lockLeaf a write's re-descents (and nothing about
// the descents themselves: writes report no depth), the WAL bracket the
// commit wait. finishOp adds what only the end of the op can see: overlap
// with in-flight migrations and migration backpressure.
//
// An untraced session (rec == nil) gets a nil probe from beginOp and
// passes it on. A stage counts in locals and stores once if the probe is
// non-nil, so the untraced cost is one predictable branch per stage and
// none per level; the cache bypass and admission rules and the sampling
// order are written once and cannot differ between traced and untraced
// sessions (TestFlightTracedMatchesUntraced holds them to that).

// beginOp arms the session probe for one op and returns its event, or nil
// when the session is not traced.
func (s *Session) beginOp(kind obs.OpKind, key uint64) *obs.OpEvent {
	if s.rec == nil {
		return nil
	}
	s.recTick++
	s.rec.Begin(&s.probe, kind, key, s.recTick&s.rec.SampleMask() == 0)
	return &s.probe.Ev
}

// finishOp stamps the cross-op signals only the end of the op can see —
// migration overlap (with the exemplar trace seq) and a migration backlog
// at or above the backpressure bound — and commits the probe. Only
// traced ops call it.
func (s *Session) finishOp() {
	ev := &s.probe.Ev
	if s.a.Tree.migActive.Load() > 0 {
		ev.MigOverlap = true
		ev.MigSeq = s.rec.MigrationSeqHint()
	}
	if d := s.a.Mgr.MigrationBacklog(); d >= core.BackpressureBacklog {
		ev.Deferred = int32(d)
	}
	s.probe.End()
}
