package bench

import (
	"context"
	"encoding/json"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/scenarios"
)

// PerfEntry is one scenario's end-to-end measurement of the
// explanation pipeline (full report over all routers), in the
// machine-readable shape CI and the perf-tracking scripts consume.
type PerfEntry struct {
	Scenario string `json:"scenario"`
	// WallMS is the wall-clock time of the full explanation report
	// (synthesis excluded, which is the synthesizer's cost, not the
	// explainer's).
	WallMS float64 `json:"wall_ms"`
	// SynthMS is the wall-clock time of synthesizing the scenario.
	SynthMS float64 `json:"synth_ms"`
	// SATConflicts, SATSolves, and SATPropagations total the SAT effort
	// of every solver the report ran.
	SATConflicts    uint64 `json:"sat_conflicts"`
	SATSolves       uint64 `json:"sat_solves"`
	SATPropagations uint64 `json:"sat_propagations"`
	// SATBinPropagations is the share of propagations served by the
	// solver's binary implication lists; SATRestarts and
	// SATMinimizedLits total restarts and learnt-clause literals
	// removed by minimization; SATAvgLBD is the mean glue of learnt
	// clauses (0 when nothing was learnt).
	SATBinPropagations uint64  `json:"sat_bin_propagations"`
	SATRestarts        uint64  `json:"sat_restarts"`
	SATMinimizedLits   uint64  `json:"sat_minimized_lits"`
	SATAvgLBD          float64 `json:"sat_avg_lbd"`
	// SATTierCore/Mid/Local are the peak tiered learnt-database sizes
	// observed across the report's solvers.
	SATTierCore  int `json:"sat_tier_core"`
	SATTierMid   int `json:"sat_tier_mid"`
	SATTierLocal int `json:"sat_tier_local"`
	// LiftQueries counts individual lift-stage SMT queries; LiftP50MS
	// and LiftP95MS are their latency percentiles in milliseconds.
	LiftQueries int     `json:"lift_queries"`
	LiftP50MS   float64 `json:"lift_p50_ms"`
	LiftP95MS   float64 `json:"lift_p95_ms"`
	// CacheHits counts queries answered from the session's encoding
	// cache; Encodes counts derived encodes actually performed.
	CacheHits int `json:"cache_hits"`
	Encodes   int `json:"encodes"`
	// ReusedCandidates counts candidate paths copied from the session's
	// base encoding instead of re-derived.
	ReusedCandidates int `json:"reused_candidates"`
	// NormCacheHits/Misses count subterm lookups in the session's shared
	// normal-form cache; NormCacheEntries is its final size.
	NormCacheHits    uint64 `json:"norm_cache_hits"`
	NormCacheMisses  uint64 `json:"norm_cache_misses"`
	NormCacheEntries int    `json:"norm_cache_entries"`
	// InternedTerms is the size of the shared hash-cons table after the
	// run (cumulative across entries: the table is process-wide).
	InternedTerms int `json:"interned_terms"`
	// PeakHeapBytes is the largest runtime.MemStats.HeapAlloc sampled
	// while the report streamed (absolute process heap, cumulative
	// across entries like InternedTerms); StreamedBytes is the report
	// size that reached the writer.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	StreamedBytes int64  `json:"streamed_bytes"`
}

// PerfReport is the payload written by netbench -benchjson.
type PerfReport struct {
	Name    string      `json:"name"`
	Entries []PerfEntry `json:"entries"`
}

// Perf measures the end-to-end explanation pipeline on every seed
// scenario.
func Perf(ctx context.Context) (*PerfReport, error) {
	rep := &PerfReport{Name: "explain-pipeline"}
	for _, sc := range scenarios.All() {
		synthStart := time.Now()
		res, err := synthesizeScenario(ctx, sc)
		if err != nil {
			return nil, err
		}
		synthMS := float64(time.Since(synthStart).Microseconds()) / 1000

		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		cw := &countingWriter{}
		hw := startHeapWatcher()
		start := time.Now()
		if _, err := ex.WriteReport(ctx, cw); err != nil {
			return nil, err
		}
		wallMS := float64(time.Since(start).Microseconds()) / 1000
		peakHeap := hw.Peak()

		st := ex.Stats()
		avgLBD := 0.0
		if st.Learnt > 0 {
			avgLBD = float64(st.LBDSum) / float64(st.Learnt)
		}
		rep.Entries = append(rep.Entries, PerfEntry{
			Scenario:           sc.Name,
			WallMS:             wallMS,
			SynthMS:            synthMS,
			SATConflicts:       st.Conflicts,
			SATSolves:          st.Solves,
			SATPropagations:    st.Propagations,
			SATBinPropagations: st.BinPropagations,
			SATRestarts:        st.Restarts,
			SATMinimizedLits:   st.MinimizedLits,
			SATAvgLBD:          avgLBD,
			SATTierCore:        st.CoreLearnts,
			SATTierMid:         st.MidLearnts,
			SATTierLocal:       st.LocalLearnts,
			LiftQueries:        st.LiftQueries,
			LiftP50MS:          float64(st.LiftP50.Microseconds()) / 1000,
			LiftP95MS:          float64(st.LiftP95.Microseconds()) / 1000,
			CacheHits:          st.CacheHits,
			Encodes:            st.Encodes,
			ReusedCandidates:   st.ReusedCandidates,
			NormCacheHits:      st.NormCacheHits,
			NormCacheMisses:    st.NormCacheMisses,
			NormCacheEntries:   st.NormCacheEntries,
			InternedTerms:      logic.Default().Size(),
			PeakHeapBytes:      peakHeap,
			StreamedBytes:      cw.n,
		})
	}
	return rep, nil
}

// WritePerfJSON runs Perf and writes the report to path, indented for
// committing alongside benchmark baselines (BENCH_*.json).
func WritePerfJSON(ctx context.Context, path string) error {
	rep, err := Perf(ctx)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
