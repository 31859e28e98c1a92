// Package engine provides the session layer of the explanation stack:
// a shared encoding cache over the synthesizer's encoder, a unified
// resource budget plumbed down to the SAT search, and merged
// statistics across all layers.
//
// The explanation workflows in internal/core are many small queries
// against one deployment — explain every router, explain one variable
// at a time, validate a subspecification — and each query re-encodes a
// deployment that is almost entirely unchanged. A Session encodes the
// concrete deployment's invariant structure once (the base encode) and
// derives each query's partially-symbolic seed specification from it,
// so a whole-network report performs one base encode plus cheap
// derivations instead of O(routers) full encodes.
package engine

import (
	"context"
	"time"
)

// DefaultMaxModels is the model-enumeration cap used when a Budget
// does not set MaxModels (the sufficiency check of the lifting step
// enumerates subspecification models up to this bound).
const DefaultMaxModels = 512

// Budget bounds the resources an explanation query may spend, across
// every layer of the stack. The zero value means unlimited (except for
// model enumeration, which falls back to DefaultMaxModels). It
// replaces the ad-hoc per-layer knobs (the raw SAT conflict budget and
// the lifting model cap) with one value plumbed down from the top.
type Budget struct {
	// Deadline is the wall-clock instant after which queries abort
	// with context.DeadlineExceeded. Zero means no deadline.
	Deadline time.Time
	// MaxConflicts bounds the conflicts any single SAT solve may
	// spend before returning Unknown. Zero or negative means no bound.
	MaxConflicts int64
	// MaxModels bounds model enumeration during sufficiency checking.
	// Zero means DefaultMaxModels.
	MaxModels int
}

// Apply derives a context carrying the budget's deadline. The returned
// cancel function must be called to release the deadline timer; when
// the budget has no deadline, ctx is returned unchanged with a no-op
// cancel.
func (b Budget) Apply(ctx context.Context) (context.Context, context.CancelFunc) {
	if b.Deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, b.Deadline)
}

// ModelCap returns the effective model-enumeration bound.
func (b Budget) ModelCap() int {
	if b.MaxModels > 0 {
		return b.MaxModels
	}
	return DefaultMaxModels
}

// Stats merges the work counters of every layer touched by a session:
// encoding effort (and how much of it the cache absorbed) plus
// SAT-level solving effort reported back by the explanation pipeline.
type Stats struct {
	// BaseEncodes counts whole-network (invariant-structure) encodes:
	// the shared base, plus the scoped recording when a report sweep
	// prepares one (PrepareScoped). A session performs at most one of
	// each unless an attempt fails.
	BaseEncodes int
	// Encodes counts derived (per-query) encodes actually performed.
	Encodes int
	// CacheHits counts queries answered from the encoding cache.
	CacheHits int
	// Candidates and ReusedCandidates total the candidate paths built
	// by derived encodes and how many of them were copied from the
	// base instead of re-derived.
	Candidates       int
	ReusedCandidates int
	// EncodeTime is the wall-clock time spent encoding (base and
	// derived, cache hits excluded).
	EncodeTime time.Duration
	// ScopedEncodes counts derived encodes answered by the cone-scoped
	// splice path (Encoder.WithScope): recorded constraint groups copied
	// verbatim, only the symbolized router's cone re-derived.
	// ScopedGroupsCopied and ScopedGroupsEncoded total the constraint
	// groups spliced versus re-encoded across those encodes — their
	// ratio is the measured locality of the deployment's explanations.
	ScopedEncodes       int
	ScopedGroupsCopied  int
	ScopedGroupsEncoded int
	// Solves, Conflicts, Propagations, Decisions, and Learnt total the
	// SAT-level effort reported via AddSolverStats. Every solver the
	// pipeline runs — including per-worker clones — is harvested into
	// these, so no path drops its counts.
	Solves       uint64
	Conflicts    uint64
	Propagations uint64
	Decisions    uint64
	Learnt       uint64
	// BinPropagations is the subset of Propagations served by the
	// solver's dedicated binary implication lists; Restarts and
	// MinimizedLits total search restarts and the literals deleted
	// from learnt clauses by minimization; LBDSum totals learnt-clause
	// glue (LBDSum/Learnt is the mean LBD); LBDHist buckets learnt
	// clauses by glue (bucket i = LBD i+1, last bucket absorbs
	// overflow) — fixed-size array, so serialized order is stable.
	BinPropagations uint64
	Restarts        uint64
	BlockedRestarts uint64
	MinimizedLits   uint64
	LBDSum          uint64
	LBDHist         [8]uint64
	// CoreLearnts, MidLearnts, and LocalLearnts are the peak sizes of
	// the tiered learnt-clause database observed across every solver
	// harvested into the session.
	CoreLearnts  int
	MidLearnts   int
	LocalLearnts int
	// WarmSolverHits and WarmSolverMisses are retired and always zero:
	// solvers are query-scoped, so there is no warm pool to hit or
	// miss. They stay in the stats schema because the netperf benchmark
	// reads them by name and nulls every engine-derived metric when one
	// is missing; delete them once netperf drops
	// engine.warm_solver_hit_share.
	WarmSolverHits   int
	WarmSolverMisses int
	// SimplifyHits counts seed simplifications answered from the
	// session's per-seed outcome cache without touching the normalizer;
	// SimplifyEntries is the cache's current size and SimplifyEvictions
	// counts entries displaced by its size cap.
	SimplifyHits      int
	SimplifyEntries   int
	SimplifyEvictions int
	// ReportCacheHits and ReportCacheMisses count lookups in the
	// cross-deployment report cache (per-router lift artifacts spliced
	// into repeat and delta explanations). Cumulative across the
	// session chain: successor sessions share one cache.
	// ReportCacheEvictions counts entries displaced by the cache's byte
	// cap; ReportCacheBytes is the cache's current accounted size (a
	// gauge).
	ReportCacheHits      int
	ReportCacheMisses    int
	ReportCacheEvictions int
	ReportCacheBytes     int64
	// NormCacheHits and NormCacheMisses count subterm lookups in the
	// session's shared normal-form cache (the rewrite engine's
	// memoization table); NormCacheEntries is the number of distinct
	// subterm normal forms it holds. A high hit rate means repeat
	// queries and sibling routers are reusing one another's
	// normalization work.
	NormCacheHits    uint64
	NormCacheMisses  uint64
	NormCacheEntries int
	// LiftQueries counts individual lift-stage SMT queries; LiftP50 and
	// LiftP95 are their latency percentiles (nearest-rank over every
	// recorded query).
	LiftQueries int
	LiftP50     time.Duration
	LiftP95     time.Duration
	// ProofChecks counts Unsat verdicts re-validated by the independent
	// DRAT checker; ProofOps and ProofLemmas total the trace operations
	// and solver-derived lemmas it consumed; ProofTime is the wall-clock
	// time it spent. CoreLits and ShrunkCoreLits total assumption-core
	// clause sizes before and after deletion-based minimization — their
	// ratio is the core shrink factor.
	ProofChecks    int
	ProofOps       int
	ProofLemmas    int
	ProofTime      time.Duration
	CoreLits       int
	ShrunkCoreLits int
}

// Add folds o into s for cross-session aggregation (a session pool
// summing retired and live sessions into one snapshot). Counters are
// summed; the tier gauges (peak learnt-database sizes) and cache-size
// gauges take the max, since they are point-in-time peaks rather than
// flows. The lift percentiles are zeroed: they cannot be combined from
// two summaries — aggregators recompute them over the merged sample
// windows (Session.LiftSamples).
func (s *Stats) Add(o Stats) {
	s.BaseEncodes += o.BaseEncodes
	s.Encodes += o.Encodes
	s.CacheHits += o.CacheHits
	s.Candidates += o.Candidates
	s.ReusedCandidates += o.ReusedCandidates
	s.EncodeTime += o.EncodeTime
	s.ScopedEncodes += o.ScopedEncodes
	s.ScopedGroupsCopied += o.ScopedGroupsCopied
	s.ScopedGroupsEncoded += o.ScopedGroupsEncoded
	s.Solves += o.Solves
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.Decisions += o.Decisions
	s.Learnt += o.Learnt
	s.BinPropagations += o.BinPropagations
	s.Restarts += o.Restarts
	s.BlockedRestarts += o.BlockedRestarts
	s.MinimizedLits += o.MinimizedLits
	s.LBDSum += o.LBDSum
	for i := range o.LBDHist {
		s.LBDHist[i] += o.LBDHist[i]
	}
	if o.CoreLearnts > s.CoreLearnts {
		s.CoreLearnts = o.CoreLearnts
	}
	if o.MidLearnts > s.MidLearnts {
		s.MidLearnts = o.MidLearnts
	}
	if o.LocalLearnts > s.LocalLearnts {
		s.LocalLearnts = o.LocalLearnts
	}
	s.WarmSolverHits += o.WarmSolverHits
	s.WarmSolverMisses += o.WarmSolverMisses
	s.SimplifyHits += o.SimplifyHits
	if o.SimplifyEntries > s.SimplifyEntries {
		s.SimplifyEntries = o.SimplifyEntries
	}
	s.SimplifyEvictions += o.SimplifyEvictions
	s.ReportCacheHits += o.ReportCacheHits
	s.ReportCacheMisses += o.ReportCacheMisses
	s.ReportCacheEvictions += o.ReportCacheEvictions
	if o.ReportCacheBytes > s.ReportCacheBytes {
		s.ReportCacheBytes = o.ReportCacheBytes
	}
	s.NormCacheHits += o.NormCacheHits
	s.NormCacheMisses += o.NormCacheMisses
	if o.NormCacheEntries > s.NormCacheEntries {
		s.NormCacheEntries = o.NormCacheEntries
	}
	s.LiftQueries += o.LiftQueries
	s.LiftP50 = 0
	s.LiftP95 = 0
	s.ProofChecks += o.ProofChecks
	s.ProofOps += o.ProofOps
	s.ProofLemmas += o.ProofLemmas
	s.ProofTime += o.ProofTime
	s.CoreLits += o.CoreLits
	s.ShrunkCoreLits += o.ShrunkCoreLits
}
