package engine

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/lru"
	"repro/internal/rewrite"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// DefaultLiftSampleCap bounds the per-session lift-latency sample
// window. A one-shot CLI run records a few hundred queries; a served
// session records queries for hours, so the window keeps percentile
// memory bounded while still reflecting recent behavior.
const DefaultLiftSampleCap = 1 << 14

// Session is the shared state of one deployment's explanation queries:
// the recorded base encoding of the concrete deployment (built once, by
// the first query) and a cache of derived encodings keyed by the
// caller's key for its overrides.
// A Session is safe for concurrent use.
type Session struct {
	net  *topology.Network
	reqs []spec.Requirement
	dep  config.Deployment
	opts synth.Options

	// base is the recorded whole-network encoding of the concrete
	// deployment that every derived encode splices from (see
	// synth.Base), built once by the first query (PrepareScoped).
	// baseErr keeps a build failure that was not the context's: the
	// session's inputs never change, so it is returned to every later
	// query.
	baseMu  sync.Mutex
	base    *synth.Base
	baseErr error

	mu      sync.Mutex
	entries map[string]*synth.Encoding
	stats   Stats
	liftNS  []int64 // recent per-query lift latencies, nanoseconds
	liftAll int     // every lift query ever recorded (window may be smaller)

	// nf is the session-lifetime normal-form cache shared by every
	// simplification run through this session: distinct seeds that
	// share subterms (sibling routers of one deployment share most of
	// their encodings) reuse one another's normalization work at
	// subterm granularity, and a repeat seed is answered by its own
	// entry. The cache is safe for concurrent readers and writers, so
	// parallel report workers simplify through it directly. Shared with
	// successor sessions: normalization is a pure function of the term,
	// and an edited network's unchanged routers present
	// pointer-identical seeds.
	nf *rewrite.Cache

	// ref holds the recorded root propagation (rewrite.Reference) of
	// the base seed the session chain met last: every seed
	// simplification a session runs replays its base seed's. It points
	// into nf and is shared with it; a successor whose edit left the
	// base seed as it was reuses it.
	ref *refSlot

	// reports is the cross-deployment report cache successor sessions
	// inherit: rendered router sections, each under its locality key (a
	// digest of everything the section's derived encode reads, plus the
	// lift options; see synth.ReadKeys) and costed at the byte size the
	// caller declares. The key is the whole validation — the cache
	// itself only stores and counts — so an eviction costs a later
	// recompute, never a wrong answer. Sharing it along a successor
	// chain only, whose topology never changes, is what lets the key
	// leave the topology out.
	reports *lru.Cache[string, string]
}

// refSlot is the sharable base-seed reference (see Session.ref).
// Recording happens under its lock, so the report workers of a session
// that miss together record once.
type refSlot struct {
	mu   sync.Mutex
	seed logic.Term
	ref  *rewrite.Reference
}

// SimplifyOutcome is one seed's simplification: the simplified term and
// its Passes. Rule fires are not part of it: the rule tables count them
// in a counting run (rewrite.CountFires).
type SimplifyOutcome struct {
	Simplified logic.Term
	Passes     int
}

// NewSession creates a session over a synthesis problem's output. The
// deployment is the concrete synthesized deployment whose invariant
// structure the session caches; reqs and opts must match what derived
// queries will encode with.
func NewSession(net *topology.Network, reqs []spec.Requirement, dep config.Deployment, opts synth.Options) *Session {
	return &Session{
		net:     net,
		reqs:    reqs,
		dep:     dep,
		opts:    opts,
		entries: make(map[string]*synth.Encoding),
		nf:      rewrite.NewCache(),
		ref:     &refSlot{},
		reports: lru.New[string, string](0, nil),
	}
}

// NewSessionFrom creates the successor session for an edited variant
// of prev's problem: same topology and encoder options, new
// requirements and deployment. The successor shares prev's pure
// cross-deployment state — the normal-form cache with its base-seed
// reference, and the report cache, whose cost cap it keeps.
// Deployment-specific state is NOT shared: the successor records its
// own base, and its encoding cache starts empty, since its entries
// assert the predecessor deployment's constraints.
func NewSessionFrom(prev *Session, reqs []spec.Requirement, dep config.Deployment) *Session {
	return &Session{
		net:     prev.net,
		reqs:    reqs,
		dep:     dep,
		opts:    prev.opts,
		entries: make(map[string]*synth.Encoding),
		nf:      prev.nf,
		ref:     prev.ref,
		reports: prev.reports,
	}
}

// ReportCache returns the session's cross-deployment report cache (see
// Session.reports). It is unbounded until its SetMaxCost is called (the
// CLI default, where a session lives for one run); a serving layer that
// holds sessions for hours caps it, and successor sessions share the
// cap with the cache.
func (s *Session) ReportCache() *lru.Cache[string, string] { return s.reports }

// NormCache returns the session's shared normal-form cache. Callers
// that simplify terms outside Simplify (for example the lift stage's
// candidate rewriting) should build their simplifier with
// rewrite.NewShared over it, so their work lands in — and is answered
// from — the session-lifetime table. The cache is safe for concurrent
// use; the per-goroutine Simplifier wrapping it is not.
func (s *Session) NormCache() *rewrite.Cache { return s.nf }

// Encode returns the encoding of the session's deployment with each
// router in overrides configured as overrides says (the routers a
// query changes, for example the one it symbolizes), caching by key.
// The key must uniquely determine the overrides — callers derive both
// from the same symbolization targets. Every encode splices from the
// session's base (PrepareScoped), which the first call builds, and
// reads the deployment through the overrides (synth.Base.Encode), so
// constraint groups the overrides leave alone are copied rather than
// re-derived and no copy of the deployment is made. A miss encodes
// outside the lock and the first encoding stored wins, as in the
// normal-form and report caches: concurrent misses on one key may
// encode it twice, and each returns the stored encoding. Failed
// encodes are not cached (a query cancelled by its context can be
// retried).
func (s *Session) Encode(ctx context.Context, overrides map[string]*config.Config, key string) (*synth.Encoding, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if enc, ok := s.entries[key]; ok {
		s.stats.CacheHits++
		s.mu.Unlock()
		return enc, nil
	}
	s.mu.Unlock()
	enc, err := s.encode(ctx, overrides)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if won, dup := s.entries[key]; dup {
		return won, nil
	}
	s.entries[key] = enc
	return enc, nil
}

// BaseError is a session's failure to build its base: the encoder
// rejects the problem itself (an allow toward a router that originates
// no prefix, say), so every query of the session fails with it.
type BaseError struct{ Err error }

func (e *BaseError) Error() string { return e.Err.Error() }
func (e *BaseError) Unwrap() error { return e.Err }

// isContextErr reports whether err is a context's cancellation or
// deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// encode performs one derived encode, spliced from the session's base.
func (s *Session) encode(ctx context.Context, overrides map[string]*config.Config) (*synth.Encoding, error) {
	base, err := s.PrepareScoped(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	enc, err := base.Encode(ctx, overrides)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Encodes++
	s.stats.Candidates += enc.Stats.Candidates
	s.stats.ReusedCandidates += enc.Stats.ReusedCandidates
	s.stats.ScopedGroupsCopied += enc.Stats.ScopedGroupsCopied
	s.stats.ScopedGroupsEncoded += enc.Stats.ScopedGroupsEncoded
	s.stats.EncodeTime += time.Since(start)
	s.mu.Unlock()
	return enc, nil
}

// PrepareScoped returns the session's base: one whole-network encode of
// the concrete deployment with every constraint group's span recorded
// (synth.NewBase). The first call builds it, under a lock, so
// concurrent first queries share one build; every Encode calls it, and
// a caller may call it ahead of time to take the build off its first
// query. A build that failed on its context is retried by the next
// call; any other failure is returned, as a *BaseError, to this and
// every later call.
func (s *Session) PrepareScoped(ctx context.Context) (*synth.Base, error) {
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	if s.base != nil || s.baseErr != nil {
		return s.base, s.baseErr
	}
	start := time.Now()
	b, err := synth.NewBase(ctx, s.net, s.dep, s.opts, s.reqs)
	if err != nil {
		if isContextErr(err) {
			return nil, err
		}
		s.baseErr = &BaseError{err}
		return nil, s.baseErr
	}
	s.base = b
	s.mu.Lock()
	s.stats.BaseEncodes++
	s.stats.EncodeTime += time.Since(start)
	s.mu.Unlock()
	return b, nil
}

// Simplify normalizes the seed term through the session's shared
// normal-form cache. A seed normalized before is answered by its own
// entry in one lookup — with hash-consed encodings a repeat query over
// a cached encoding presents the very same seed pointer. A miss still
// reuses every subterm normal form earlier seeds left in the shared
// cache, and its root conjunction replays the base seed's recorded
// propagation (rewrite.Reference, recorded by the first miss after the
// base is built), recomputing only what the seed's cone changes.
// Concurrent misses on the same term may compute it twice; the function
// is pure and deterministic (Passes is the seed entry's pass depth,
// memoized when each cache entry is published, not a product of the
// order work happened to be done in), so either result is the same.
func (s *Session) Simplify(seed logic.Term) SimplifyOutcome {
	seed = logic.Intern(seed)
	if out, passes, ok := s.nf.Lookup(seed); ok {
		s.mu.Lock()
		s.stats.SimplifyHits++
		s.mu.Unlock()
		return SimplifyOutcome{Simplified: out, Passes: passes}
	}
	simp := rewrite.NewShared(s.nf)
	simp.Ref = s.reference()
	out := SimplifyOutcome{Simplified: simp.Simplify(seed), Passes: simp.Passes}
	s.mu.Lock()
	s.stats.SimplifyReplays += simp.Replays
	s.stats.SimplifyReplayFallbacks += simp.ReplayFallbacks
	s.mu.Unlock()
	return out
}

// reference returns the recorded root propagation of the session's base
// seed, recording it (which leaves the base seed's entry in the
// normal-form cache) when the chain's slot holds another seed's; nil
// before the base is built.
func (s *Session) reference() *rewrite.Reference {
	s.baseMu.Lock()
	base := s.base
	s.baseMu.Unlock()
	if base == nil {
		return nil
	}
	seed := base.Seed()
	s.ref.mu.Lock()
	defer s.ref.mu.Unlock()
	if s.ref.seed != seed {
		_, ref := rewrite.NewShared(s.nf).Record(seed)
		s.ref.seed, s.ref.ref = seed, ref
	}
	return s.ref.ref
}

// AddSolverStats folds the SAT-level effort of a solver that has
// finished its work into the session's merged statistics. Solvers are
// query-scoped, so each one is folded exactly once, when its query
// releases it.
func (s *Session) AddSolverStats(st sat.Stats) {
	s.mu.Lock()
	s.stats.Solves += st.Solves
	s.stats.Conflicts += st.Conflicts
	s.stats.Propagations += st.Propagations
	s.stats.Decisions += st.Decisions
	s.stats.Learnt += st.Learnt
	s.stats.Restarts += st.Restarts
	s.stats.Reductions += st.Reductions
	s.stats.MinimizedLits += st.MinimizedLits
	s.stats.LBDSum += st.LBDSum
	for i := range st.LBDHist {
		s.stats.LBDHist[i] += st.LBDHist[i]
	}
	s.mu.Unlock()
}

// AddProofStats folds one proof verification into the session's merged
// statistics.
func (s *Session) AddProofStats(rep smt.ProofReport) {
	s.mu.Lock()
	s.stats.ProofChecks++
	s.stats.ProofOps += rep.Ops
	s.stats.ProofLemmas += rep.Lemmas
	s.stats.ProofTime += rep.Duration
	s.mu.Unlock()
}

// AddLiftQueries records the latencies of individual lift-stage SMT
// queries (vacuity, necessity and sufficiency checks), batched per
// worker to keep the lock off the hot path. The sample window keeps the
// most recent DefaultLiftSampleCap samples: the total query count keeps
// growing, the percentiles are computed over the window.
func (s *Session) AddLiftQueries(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	s.mu.Lock()
	for _, d := range ds {
		s.liftNS = append(s.liftNS, d.Nanoseconds())
	}
	s.liftAll += len(ds)
	if n := len(s.liftNS); n > DefaultLiftSampleCap {
		s.liftNS = append(s.liftNS[:0], s.liftNS[n-DefaultLiftSampleCap:]...)
	}
	s.mu.Unlock()
}

// LiftSamples returns a copy of the retained lift-latency sample
// window (nanoseconds, unsorted). A pool aggregating several sessions
// merges the windows and computes percentiles over the union.
func (s *Session) LiftSamples() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.liftNS...)
}

// Stats returns a snapshot of the merged statistics. The lift-query
// latency percentiles are computed over the retained sample window.
func (s *Session) Stats() Stats {
	st := s.localStats()
	st.NormCacheHits = s.nf.Hits()
	st.NormCacheMisses = s.nf.Misses()
	st.NormCacheEntries = s.nf.Len()
	rs := s.reports.Stats()
	st.ReportCacheHits, st.ReportCacheMisses, st.ReportCacheEvictions = rs.Hits, rs.Misses, rs.Evictions
	st.ReportCacheBytes = rs.Cost
	return st
}

// localStats is Stats without the counters of the caches the session
// shares with its successors (NewSessionFrom): the normal-form and
// report caches, whose counters a successor's snapshot carries
// cumulatively.
func (s *Session) localStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.LiftQueries = s.liftAll
	if n := len(s.liftNS); n > 0 {
		ns := append([]int64(nil), s.liftNS...)
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		st.LiftP50 = time.Duration(ns[(n-1)*50/100])
		st.LiftP95 = time.Duration(ns[(n-1)*95/100])
	}
	return st
}
