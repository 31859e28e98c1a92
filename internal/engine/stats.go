// Package engine provides the session layer of the explanation stack:
// a shared encoding cache over the synthesizer's encoder and merged
// statistics across all layers. Deadlines and cancellation reach every
// layer, down to the SAT search, through the caller's context.
//
// The explanation workflows in internal/core are many small queries
// against one deployment — explain every router, explain one variable
// at a time, validate a subspecification — and each query re-encodes a
// deployment that is almost entirely unchanged. A Session encodes the
// concrete deployment once, recording every constraint group (the base
// encode), and splices each query's partially-symbolic seed
// specification from it, so a session performs one whole-network
// encode plus cone-sized derivations instead of O(routers) full
// encodes.
package engine

import (
	"slices"
	"time"
)

// Stats merges the work counters of every layer touched by a session:
// encoding effort (and how much of it the cache absorbed) plus
// SAT-level solving effort reported back by the explanation pipeline.
type Stats struct {
	// BaseEncodes counts whole-network encodes: the session's recorded
	// base (PrepareScoped). A session performs one, whatever its first
	// query, unless a build fails on its context.
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
	// ScopedGroupsCopied and ScopedGroupsEncoded total, across derived
	// encodes, the constraint groups spliced verbatim from the base
	// versus re-encoded inside the symbolized router's cone — their
	// ratio is the measured locality of the deployment's explanations.
	ScopedGroupsCopied  int
	ScopedGroupsEncoded int
	// Solves, Conflicts, Propagations, Decisions, and Learnt total the
	// SAT-level effort reported via AddSolverStats. Every solver the
	// pipeline runs is harvested into these, so no path drops its
	// counts.
	Solves       uint64
	Conflicts    uint64
	Propagations uint64
	Decisions    uint64
	Learnt       uint64
	// Restarts, Reductions and MinimizedLits total search restarts,
	// learnt-database reductions and the literals deleted from learnt
	// clauses by minimization; LBDSum totals learnt-clause glue
	// (LBDSum/Learnt is the mean LBD); LBDHist buckets learnt clauses
	// by glue (bucket i = LBD i+1, last bucket absorbs overflow) —
	// fixed-size array, so serialized order is stable.
	Restarts      uint64
	Reductions    uint64
	MinimizedLits uint64
	LBDSum        uint64
	LBDHist       [8]uint64
	// WarmSolverHits and WarmSolverMisses are retired and always zero:
	// solvers are query-scoped, so there is no warm pool to hit or
	// miss. They stay in the stats schema because the netperf benchmark
	// reads them by name and nulls every engine-derived metric when one
	// is missing; delete them once netperf drops
	// engine.warm_solver_hit_share.
	WarmSolverHits   int
	WarmSolverMisses int
	// SimplifyHits counts seed simplifications answered without
	// normalizing: the seed's own entry in the normal-form cache held
	// its normal form.
	SimplifyHits int
	// SimplifyReplays counts seed simplifications whose root
	// conjunction replayed the base seed's recorded propagation;
	// SimplifyReplayFallbacks counts those whose root fell back to the
	// full propagation loop (a resettle, no alignment, or an unusable
	// reference).
	SimplifyReplays         int
	SimplifyReplayFallbacks int
	// ReportCacheHits and ReportCacheMisses count lookups in the
	// cross-deployment report cache (rendered router sections reused by
	// repeat and delta reports). Cumulative across the session chain:
	// successor sessions share one cache.
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
	// time it spent.
	ProofChecks int
	ProofOps    int
	ProofLemmas int
	ProofTime   time.Duration
}

// setLiftPercentiles sets LiftP50 and LiftP95 to the nearest-rank
// percentiles of samples (nanoseconds), which it sorts in place; with
// no samples it leaves them alone.
func (s *Stats) setLiftPercentiles(samples []int64) {
	if n := len(samples); n > 0 {
		slices.Sort(samples)
		s.LiftP50 = time.Duration(samples[(n-1)*50/100])
		s.LiftP95 = time.Duration(samples[(n-1)*95/100])
	}
}

// Add folds o into s for cross-session aggregation (a session pool
// summing retired and live sessions into one snapshot). Counters are
// summed; the cache-size gauges take the max, since they are
// point-in-time peaks rather than flows. The lift percentiles are
// zeroed: they cannot be combined from two summaries — aggregators
// recompute them over the merged sample windows (Session.LiftSamples).
func (s *Stats) Add(o Stats) {
	s.BaseEncodes += o.BaseEncodes
	s.Encodes += o.Encodes
	s.CacheHits += o.CacheHits
	s.Candidates += o.Candidates
	s.ReusedCandidates += o.ReusedCandidates
	s.EncodeTime += o.EncodeTime
	s.ScopedGroupsCopied += o.ScopedGroupsCopied
	s.ScopedGroupsEncoded += o.ScopedGroupsEncoded
	s.Solves += o.Solves
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.Decisions += o.Decisions
	s.Learnt += o.Learnt
	s.Restarts += o.Restarts
	s.Reductions += o.Reductions
	s.MinimizedLits += o.MinimizedLits
	s.LBDSum += o.LBDSum
	for i := range o.LBDHist {
		s.LBDHist[i] += o.LBDHist[i]
	}
	s.WarmSolverHits += o.WarmSolverHits
	s.WarmSolverMisses += o.WarmSolverMisses
	s.SimplifyHits += o.SimplifyHits
	s.SimplifyReplays += o.SimplifyReplays
	s.SimplifyReplayFallbacks += o.SimplifyReplayFallbacks
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
}
