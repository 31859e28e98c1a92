package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/scenarios"
)

// LiftTable measures what query reuse buys the lift stage: each
// scenario's whole-network report runs twice through one explainer —
// the first pass cold (caches empty), the second a repeat through the
// same session, where every router's section comes from the report
// cache and nothing is encoded, simplified or lifted. The per-query
// latency percentiles cover every lift-stage SMT query, all of them
// the first pass's.
func LiftTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "lift-reuse (extension Ext-2)",
		Caption: "Lift-result reuse. cold-ms is a first whole-network report (empty caches); warm-ms is a repeat of it through the same session, where every router's section comes from the report cache under its locality key. splices counts those report-cache hits. p50/p95 are per-lift-query latencies, all from the cold pass.",
		Columns: []string{"scenario", "cold-ms", "warm-ms", "speedup", "queries", "p50-ms", "p95-ms", "splices"},
	}
	for _, sc := range scenarios.All() {
		res, err := synthesizeScenario(ctx, sc)
		if err != nil {
			return nil, err
		}
		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := ex.ReportContext(ctx); err != nil {
			return nil, fmt.Errorf("%s cold report: %w", sc.Name, err)
		}
		coldMS := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		if _, err := ex.ReportContext(ctx); err != nil {
			return nil, fmt.Errorf("%s warm report: %w", sc.Name, err)
		}
		warmMS := float64(time.Since(start).Microseconds()) / 1000
		speedup := 0.0
		if warmMS > 0 {
			speedup = coldMS / warmMS
		}
		st := ex.Stats()
		t.AddRow(sc.Name,
			fmt.Sprintf("%.1f", coldMS), fmt.Sprintf("%.1f", warmMS),
			fmt.Sprintf("%.2fx", speedup), st.LiftQueries,
			fmt.Sprintf("%.3f", float64(st.LiftP50.Microseconds())/1000),
			fmt.Sprintf("%.3f", float64(st.LiftP95.Microseconds())/1000),
			st.ReportCacheHits)
	}
	return t, nil
}
