package engine

import (
	"container/list"
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/logic"
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

// CacheLimits bounds the growable per-session caches. Zero fields mean
// unlimited (the CLI default, where a session lives for one run); a
// serving layer that holds sessions for hours sets every field. Limits
// on the report and simplify caches travel with the caches themselves,
// so successor sessions (NewSessionFrom) inherit them.
type CacheLimits struct {
	// ReportBytes caps the cross-deployment report cache (per-router
	// lift artifacts and rendered whole-network reports) by its total
	// accounted byte size, evicted least-recently-used. Byte accounting
	// — not entry counting — is what keeps a handful of 1000-router
	// reports from pinning a server's heap while thousands of small
	// lift entries still fit.
	ReportBytes int64
	// Simplify caps the per-seed simplification outcome cache, evicted
	// least-recently-used.
	Simplify int
	// LiftSamples caps the lift-latency sample window the percentile
	// stats are computed over (most recent samples are kept).
	LiftSamples int
	// StreamWindow bounds how many rendered router sections a streaming
	// report (core.Explainer.WriteReport) may hold buffered awaiting
	// in-order flush. Zero picks a default proportional to the worker
	// count.
	StreamWindow int
}

// Session is the shared state of one deployment's explanation queries:
// the base encoding of the concrete deployment (built once, lazily)
// and a cache of derived encodings keyed by the caller's sketch key.
// A Session is safe for concurrent use; concurrent requests for the
// same key are coalesced into one encode (single flight).
type Session struct {
	net  *topology.Network
	reqs []spec.Requirement
	dep  config.Deployment
	opts synth.Options

	// in is the hash-cons table shared by every encode and solve run
	// through this session, so structurally equal terms are pointer-
	// identical across queries (set once at construction; immutable
	// afterwards, hence safe to read concurrently).
	in *logic.Interner

	// Budget bounds the resources of queries run through this session.
	// Callers read it to derive deadlines and solver budgets; it is not
	// mutated by the session itself and must be set before the session
	// is shared across goroutines.
	Budget Budget

	// VerifyProofs directs solvers built for this session to record
	// DRAT-style proof traces and the pipeline to re-validate every
	// Unsat verdict with the independent checker (internal/drat). Like
	// Budget, set it before the session is shared.
	VerifyProofs bool

	baseMu   sync.Mutex
	base     *synth.Base
	baseDead bool // base build failed for a non-context reason; stop retrying

	// scoped is the recorded whole-network encoding the cone-scoped
	// encode path splices from (see synth.ScopedBase). Built lazily by
	// PrepareScoped — whole-network sweeps call it once up front; single
	// queries never pay for it. scopedDead latches a non-context build
	// failure; scopedOff disables the path entirely (cold benchmark
	// arms, byte-identity tests).
	scopedMu   sync.Mutex
	scoped     *synth.ScopedBase
	scopedDead bool
	scopedOff  bool

	mu      sync.Mutex
	entries map[string]*entry
	stats   Stats
	liftNS  []int64 // recent per-query lift latencies, nanoseconds
	liftAll int     // every lift query ever recorded (window may be smaller)
	liftCap int     // sample-window cap (0 = DefaultLiftSampleCap)
	// streamWin is CacheLimits.StreamWindow (0 = derive from workers).
	streamWin int

	// simps is the per-seed outcome cache, keyed by the canonical
	// (interned) seed term. Simplification is a pure function of the
	// term, so repeat queries over a cached encoding skip normalization
	// entirely. Successor sessions (NewSessionFrom) share the cache:
	// purity makes it sound across deployments, and an edited network's
	// unchanged routers present pointer-identical seeds.
	simps *simpCache

	// nf is the session-lifetime normal-form cache shared by every
	// simplification run through this session: distinct seeds that
	// share subterms (sibling routers of one deployment share most of
	// their encodings) reuse one another's normalization work at
	// subterm granularity. The cache is safe for concurrent readers
	// and writers, so parallel report workers simplify through it
	// directly. Shared with successor sessions.
	nf *rewrite.Cache

	// reports is the cross-deployment report cache successor sessions
	// inherit: opaque per-router artifacts (the explainer's lift
	// results) keyed by encoding key. Values are validated by the
	// caller against the current encoding before reuse — the cache
	// itself only stores and counts.
	reports *ReportCache

	// prevBase is the predecessor session's base encoding (set by
	// NewSessionFrom): ensureBase derives this session's base from it,
	// sharing every candidate whose path avoids the edited routers.
	prevBase *synth.Base
}

// simpCache is the sharable per-seed simplification cache (see
// Session.simps), LRU-bounded when a limit is set.
type simpCache struct {
	mu        sync.Mutex
	m         map[logic.Term]*list.Element
	lru       *list.List // of simpEntry, front = most recent
	limit     int
	evictions int
}

type simpEntry struct {
	seed logic.Term
	out  *SimplifyOutcome
}

func newSimpCache() *simpCache {
	return &simpCache{m: make(map[logic.Term]*list.Element), lru: list.New()}
}

func (c *simpCache) get(seed logic.Term) (*SimplifyOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[seed]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(simpEntry).out, true
}

func (c *simpCache) put(seed logic.Term, out *SimplifyOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[seed]; ok {
		c.lru.MoveToFront(el)
		el.Value = simpEntry{seed: seed, out: out}
		return
	}
	c.m[seed] = c.lru.PushFront(simpEntry{seed: seed, out: out})
	c.shedLocked()
}

func (c *simpCache) setLimit(n int) {
	c.mu.Lock()
	c.limit = n
	c.shedLocked()
	c.mu.Unlock()
}

func (c *simpCache) shedLocked() {
	if c.limit <= 0 {
		return
	}
	for c.lru.Len() > c.limit {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.m, el.Value.(simpEntry).seed)
		c.evictions++
	}
}

func (c *simpCache) counters() (entries, evictions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.evictions
}

// ReportCache stores per-router explanation artifacts across
// deployment generations. Keys are the session encoding keys; values
// are opaque to the engine (the core layer stores its lift outcomes
// and re-validates them against the live encoding before splicing, so
// a stale entry costs a recompute, never a wrong answer). Safe for
// concurrent use.
//
// Entries are accounted by the byte size the caller declares at Put
// time; with a byte cap set (SetMaxBytes) the cache evicts least-
// recently-used entries until it fits — an eviction costs a later
// recompute, never a wrong answer, for the same reason. A single entry
// larger than the whole cap is dropped rather than stored: the cap is
// a heap bound, not a target.
type ReportCache struct {
	mu        sync.Mutex
	m         map[string]*list.Element
	lru       *list.List // of reportEntry, front = most recent
	maxBytes  int64
	bytes     int64
	hits      int
	misses    int
	evictions int
}

type reportEntry struct {
	key  string
	v    any
	size int64
}

// NewReportCache creates an empty, unbounded report cache.
func NewReportCache() *ReportCache {
	return &ReportCache{m: make(map[string]*list.Element), lru: list.New()}
}

// SetMaxBytes bounds the cache's total accounted size (0 = unlimited),
// evicting immediately if it is already over.
func (rc *ReportCache) SetMaxBytes(n int64) {
	rc.mu.Lock()
	rc.maxBytes = n
	rc.shedLocked()
	rc.mu.Unlock()
}

// Get returns the entry stored under key, counting a hit or miss.
func (rc *ReportCache) Get(key string) (any, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.m[key]
	if !ok {
		rc.misses++
		return nil, false
	}
	rc.hits++
	rc.lru.MoveToFront(el)
	return el.Value.(reportEntry).v, true
}

// Put stores an entry under key with its accounted byte size (the
// caller's estimate of what retaining v costs), displacing any previous
// entry under the key and evicting least-recently-used entries while
// the cache exceeds its byte cap.
func (rc *ReportCache) Put(key string, v any, size int64) {
	if size < 0 {
		size = 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.m[key]; ok {
		rc.bytes += size - el.Value.(reportEntry).size
		el.Value = reportEntry{key: key, v: v, size: size}
		rc.lru.MoveToFront(el)
		rc.shedLocked()
		return
	}
	rc.m[key] = rc.lru.PushFront(reportEntry{key: key, v: v, size: size})
	rc.bytes += size
	rc.shedLocked()
}

func (rc *ReportCache) shedLocked() {
	if rc.maxBytes <= 0 {
		return
	}
	for rc.bytes > rc.maxBytes && rc.lru.Len() > 0 {
		el := rc.lru.Back()
		rc.lru.Remove(el)
		ent := el.Value.(reportEntry)
		delete(rc.m, ent.key)
		rc.bytes -= ent.size
		rc.evictions++
	}
}

// Len returns the number of stored entries.
func (rc *ReportCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.Len()
}

// MaxBytes returns the cache's byte cap (0 = unlimited). Callers that
// buffer a value before storing it (the streaming report tee) use it to
// stop buffering early once the value cannot fit anyway.
func (rc *ReportCache) MaxBytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.maxBytes
}

// Bytes returns the cache's current accounted size.
func (rc *ReportCache) Bytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bytes
}

// Counters returns the cumulative hit and miss counts (callers wanting
// per-phase figures snapshot before and after).
func (rc *ReportCache) Counters() (hits, misses int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.hits, rc.misses
}

// Evictions returns how many entries the size limit has displaced.
func (rc *ReportCache) Evictions() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.evictions
}

// SimplifyOutcome is one seed's cached simplification: the simplified
// term plus the simplifier's diagnostics, which explanations report.
// Outcomes are shared across queries and must be treated as immutable.
type SimplifyOutcome struct {
	Simplified logic.Term
	Passes     int
	Trace      []int
	Stats      map[rewrite.RuleName]int
}

type entry struct {
	ready chan struct{} // closed when enc/err are set
	enc   *synth.Encoding
	err   error
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
		in:      logic.Default(),
		entries: make(map[string]*entry),
		simps:   newSimpCache(),
		nf:      rewrite.NewCache(),
		reports: NewReportCache(),
	}
}

// NewSessionFrom creates the successor session for an edited variant
// of prev's problem: same topology and encoder options, new
// requirements and deployment. The successor shares prev's pure
// cross-deployment state — the term table, the normal-form cache, the
// per-seed simplification cache, and the report cache — and derives
// its base encoding from prev's (candidates on paths avoiding the
// edited routers are pointer-shared). Deployment-specific state is NOT
// shared: encoding entries start empty, since they assert the
// predecessor deployment's constraints.
// Budget, VerifyProofs, and the cache limits are copied from prev
// (shared-cache limits travel with the shared caches themselves).
func NewSessionFrom(prev *Session, reqs []spec.Requirement, dep config.Deployment) *Session {
	s := &Session{
		net:          prev.net,
		reqs:         reqs,
		dep:          dep,
		opts:         prev.opts,
		in:           prev.in,
		Budget:       prev.Budget,
		VerifyProofs: prev.VerifyProofs,
		entries:      make(map[string]*entry),
		simps:        prev.simps,
		nf:           prev.nf,
		reports:      prev.reports,
	}
	prev.mu.Lock()
	s.liftCap = prev.liftCap
	s.streamWin = prev.streamWin
	prev.mu.Unlock()
	prev.baseMu.Lock()
	s.prevBase = prev.base
	prev.baseMu.Unlock()
	// The scoped recording is deployment-specific and does NOT carry
	// over; the successor rebuilds its own on the next whole-network
	// sweep. The off switch is a session-chain policy and does carry.
	prev.scopedMu.Lock()
	s.scopedOff = prev.scopedOff
	prev.scopedMu.Unlock()
	return s
}

// SetCacheLimits bounds the session's growable caches (see
// CacheLimits). Call before heavy traffic; limits on the shared report
// and simplify caches apply to every session sharing them.
func (s *Session) SetCacheLimits(l CacheLimits) {
	s.reports.SetMaxBytes(l.ReportBytes)
	s.simps.setLimit(l.Simplify)
	s.mu.Lock()
	s.liftCap = l.LiftSamples
	s.streamWin = l.StreamWindow
	s.trimLiftLocked()
	s.mu.Unlock()
}

// StreamWindow returns the configured streaming-report buffer bound
// (CacheLimits.StreamWindow); zero means the caller derives a default
// from its worker count.
func (s *Session) StreamWindow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streamWin
}

// trimLiftLocked keeps only the most recent liftCap samples. Caller
// holds s.mu.
func (s *Session) trimLiftLocked() {
	cap := s.liftCap
	if cap <= 0 {
		cap = DefaultLiftSampleCap
	}
	if len(s.liftNS) > cap {
		s.liftNS = append(s.liftNS[:0], s.liftNS[len(s.liftNS)-cap:]...)
	}
}

// ReportCache returns the session's cross-deployment report cache.
func (s *Session) ReportCache() *ReportCache { return s.reports }

// Interner returns the session's shared term table. Solvers working on
// this session's encodings should adopt it (smt.Solver.UseInterner) so
// their memo tables key on the same canonical pointers the encodings
// hold.
func (s *Session) Interner() *logic.Interner { return s.in }

// NormCache returns the session's shared normal-form cache. Callers
// that simplify terms outside Simplify (for example the lift stage's
// candidate rewriting) should build their simplifier with
// rewrite.NewShared over it, so their work lands in — and is answered
// from — the session-lifetime table. The cache is safe for concurrent
// use; the per-goroutine Simplifier wrapping it is not.
func (s *Session) NormCache() *rewrite.Cache { return s.nf }

// Encode returns the encoding of the (possibly partially symbolic)
// sketch, caching by key. The key must uniquely determine the sketch
// given the session's deployment — callers derive both from the same
// symbolization targets. The first call builds the base encoding of
// the concrete deployment; every call derives its sketch's encoding
// from that base, so candidates untouched by the symbolization are
// reused rather than re-derived. Failed encodes are not cached (a
// query cancelled by its context can be retried).
func (s *Session) Encode(ctx context.Context, sketch config.Deployment, key string) (*synth.Encoding, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err == nil {
			s.mu.Lock()
			s.stats.CacheHits++
			s.mu.Unlock()
		}
		return e.enc, e.err
	}
	e := &entry{ready: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	e.enc, e.err = s.encode(ctx, sketch)
	close(e.ready)
	if e.err != nil {
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
	}
	return e.enc, e.err
}

// encode performs one derived encode, attaching the base — and, when
// one has been prepared, the scoped recording — so the encoder can
// splice instead of re-deriving the whole network.
func (s *Session) encode(ctx context.Context, sketch config.Deployment) (*synth.Encoding, error) {
	base := s.ensureBase(ctx)
	scoped := s.currentScoped()
	start := time.Now()
	enc, err := synth.NewEncoder(s.net, sketch, s.opts).WithBase(base).WithScope(scoped).WithInterner(s.in).EncodeContext(ctx, s.reqs)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Encodes++
	s.stats.Candidates += enc.Stats.Candidates
	s.stats.ReusedCandidates += enc.Stats.ReusedCandidates
	if enc.Stats.ScopedGroupsCopied+enc.Stats.ScopedGroupsEncoded > 0 {
		s.stats.ScopedEncodes++
		s.stats.ScopedGroupsCopied += enc.Stats.ScopedGroupsCopied
		s.stats.ScopedGroupsEncoded += enc.Stats.ScopedGroupsEncoded
	}
	s.stats.EncodeTime += time.Since(start)
	s.mu.Unlock()
	return enc, nil
}

// currentScoped returns the prepared scoped recording, nil when none
// exists or the path is disabled.
func (s *Session) currentScoped() *synth.ScopedBase {
	s.scopedMu.Lock()
	defer s.scopedMu.Unlock()
	if s.scopedOff {
		return nil
	}
	return s.scoped
}

// PrepareScoped builds the session's scoped recording once: a single
// whole-network encode of the concrete deployment with per-group
// constraint spans recorded (synth.NewScopedBase). Whole-network report
// sweeps call it up front so every per-router encode splices instead of
// re-deriving the network; single queries never call it and stay on the
// plain path (one extra full encode would not amortize). Like
// ensureBase, a failure for a non-context reason is latched and the
// path degrades to whole-network encodes — never to a wrong answer.
// Returns the recording, or nil when unavailable or disabled.
func (s *Session) PrepareScoped(ctx context.Context) *synth.ScopedBase {
	s.scopedMu.Lock()
	defer s.scopedMu.Unlock()
	if s.scopedOff || s.scopedDead {
		return nil
	}
	if s.scoped != nil {
		return s.scoped
	}
	base := s.ensureBase(ctx)
	start := time.Now()
	sb, err := synth.NewScopedBase(ctx, s.net, s.dep, s.opts, s.reqs, base, s.in)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.scopedDead = true
		}
		return nil
	}
	s.scoped = sb
	s.mu.Lock()
	s.stats.BaseEncodes++
	s.stats.EncodeTime += time.Since(start)
	s.mu.Unlock()
	return sb
}

// DisableScopedEncoding forces every encode of this session (and its
// successors) onto the whole-network path. Benchmark cold arms and
// byte-identity tests use it; results are identical either way, only
// slower.
func (s *Session) DisableScopedEncoding() {
	s.scopedMu.Lock()
	s.scopedOff = true
	s.scoped = nil
	s.scopedMu.Unlock()
}

// ensureBase builds the base encoding once. Base construction is an
// optimization: if it fails for a reason other than cancellation the
// failure is latched and derived encodes simply proceed without reuse
// (they would surface any real encoding error themselves); a
// cancelled build is retried by the next query.
func (s *Session) ensureBase(ctx context.Context) *synth.Base {
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	if s.base != nil || s.baseDead {
		return s.base
	}
	start := time.Now()
	base, err := synth.NewBaseFrom(ctx, s.net, s.dep, s.opts, s.prevBase)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.baseDead = true
		}
		return nil
	}
	s.base = base
	s.mu.Lock()
	s.stats.BaseEncodes++
	s.stats.EncodeTime += time.Since(start)
	s.mu.Unlock()
	return base
}

// EnsureBase builds (or returns) the session's base encoding — the
// concrete deployment's candidate structure. Nil when base
// construction failed; derived encodes then proceed without reuse.
// Exported for the delta layer, which diffs the predecessor's and
// successor's bases to locate an edit's modeled footprint.
func (s *Session) EnsureBase(ctx context.Context) *synth.Base {
	return s.ensureBase(ctx)
}

// Simplify normalizes the seed term through the session's shared
// normal-form cache, caching the per-seed outcome by the term's
// canonical pointer — with hash-consed encodings a repeat query over a
// cached encoding presents the very same seed pointer, so the whole
// simplification is answered by one map lookup. A miss still reuses
// every subterm normal form earlier seeds left in the shared cache.
// Concurrent misses on the same term may compute it twice; the
// function is pure and deterministic (outcome diagnostics are
// reconstructed from the cache's dependency graph, not from the order
// work happened to be done in), so either result is the same.
func (s *Session) Simplify(seed logic.Term) *SimplifyOutcome {
	seed = s.in.Intern(seed)
	if out, ok := s.simps.get(seed); ok {
		s.mu.Lock()
		s.stats.SimplifyHits++
		s.mu.Unlock()
		return out
	}
	simp := rewrite.NewShared(s.nf)
	out := &SimplifyOutcome{
		Simplified: simp.Simplify(seed),
		Passes:     simp.Passes,
		Trace:      append([]int(nil), simp.Trace...),
		Stats:      simp.Stats,
	}
	s.simps.put(seed, out)
	return out
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
	s.stats.BinPropagations += st.BinPropagations
	s.stats.Restarts += st.Restarts
	s.stats.BlockedRestarts += st.BlockedRestarts
	s.stats.MinimizedLits += st.MinimizedLits
	s.stats.LBDSum += st.LBDSum
	for i := range st.LBDHist {
		s.stats.LBDHist[i] += st.LBDHist[i]
	}
	if st.CoreLearnts > s.stats.CoreLearnts {
		s.stats.CoreLearnts = st.CoreLearnts
	}
	if st.MidLearnts > s.stats.MidLearnts {
		s.stats.MidLearnts = st.MidLearnts
	}
	if st.LocalLearnts > s.stats.LocalLearnts {
		s.stats.LocalLearnts = st.LocalLearnts
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
	s.stats.CoreLits += rep.CoreLits
	s.stats.ShrunkCoreLits += rep.ShrunkCoreLits
	s.mu.Unlock()
}

// AddLiftQueries records the latencies of individual lift-stage SMT
// queries (vacuity, necessity, extendability probes), batched per
// worker to keep the lock off the hot path. The sample window is
// bounded (CacheLimits.LiftSamples, DefaultLiftSampleCap by default):
// the total query count keeps growing, the percentiles are computed
// over the most recent window.
func (s *Session) AddLiftQueries(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	s.mu.Lock()
	for _, d := range ds {
		s.liftNS = append(s.liftNS, d.Nanoseconds())
	}
	s.liftAll += len(ds)
	s.trimLiftLocked()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.NormCacheHits = s.nf.Hits()
	st.NormCacheMisses = s.nf.Misses()
	st.NormCacheEntries = s.nf.Len()
	st.ReportCacheHits, st.ReportCacheMisses = s.reports.Counters()
	st.ReportCacheEvictions = s.reports.Evictions()
	st.ReportCacheBytes = s.reports.Bytes()
	st.SimplifyEntries, st.SimplifyEvictions = s.simps.counters()
	st.LiftQueries = s.liftAll
	if n := len(s.liftNS); n > 0 {
		ns := append([]int64(nil), s.liftNS...)
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		st.LiftP50 = time.Duration(ns[(n-1)*50/100])
		st.LiftP95 = time.Duration(ns[(n-1)*95/100])
	}
	return st
}
