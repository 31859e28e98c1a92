package core

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/scenarios"
)

// TestReportIdenticalAcrossWorkerCounts pins the determinism contract
// of the report stream: the whole-network report is byte-identical to
// the committed golden for every router-pool width, because sections
// are flushed in router order and each router's lift runs on its own
// solvers.
func TestReportIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dep := synthScenario(t, sc)
			want, err := os.ReadFile(filepath.Join("testdata", "report_"+sc.Name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (run TestReportMatchesGolden -update): %v", err)
			}
			for _, procs := range []int{1, 2, 8} {
				setGOMAXPROCS(t, procs)
				got, err := newExplainer(t, sc, dep, nil).Report()
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if got != string(want) {
					t.Errorf("GOMAXPROCS=%d: report differs from golden", procs)
				}
			}
		})
	}
}

// TestSolverWorkIndependentOfGOMAXPROCS pins that a cold report's
// solver work depends on the problem alone, not on the host's CPU
// count: each router's lift runs its checks in order on its own
// solvers, so the router pool's width cannot change a counter. Every
// counter is also pinned absolutely (the values `netbench -table sat`
// prints). Which queries run depends on the verdicts alone, so a seed
// solver that changes what it is built from must leave solves and
// lift queries where they are; conflicts, propagations and learnt
// clauses measure the search itself, so a change to search policy
// shows up here as a diff.
func TestSolverWorkIndependentOfGOMAXPROCS(t *testing.T) {
	type work struct {
		solves, conflicts, props, learnt uint64
		liftQueries                      int
	}
	pinned := map[string]work{
		"scenario1": {40, 6, 1034, 4, 38},
		"scenario2": {75, 12, 27005, 10, 72},
		"scenario3": {103, 16, 28595, 14, 100},
	}
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dep := synthScenario(t, sc)
			want, ok := pinned[sc.Name]
			if !ok {
				t.Fatalf("no pinned counts for %s", sc.Name)
			}
			for _, procs := range []int{1, 4} {
				setGOMAXPROCS(t, procs)
				e := newExplainer(t, sc, dep, nil)
				if _, err := e.Report(); err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				st := e.Stats()
				got := work{st.Solves, st.Conflicts, st.Propagations, st.Learnt, st.LiftQueries}
				if got != want {
					t.Errorf("GOMAXPROCS=%d: solves/conflicts/props/learnts/lift queries = %+v, want %+v",
						procs, got, want)
				}
			}
		})
	}
}

// TestRepeatQuerySplicesLift checks that a repeat report through one
// explainer is answered from the report cache: the bytes still match
// the golden, no encode, simplification, lift query or SAT solve runs,
// and every router's section is one report-cache hit.
func TestRepeatQuerySplicesLift(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dep := synthScenario(t, sc)
			want, err := os.ReadFile(filepath.Join("testdata", "report_"+sc.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			e := newExplainer(t, sc, dep, nil)
			ctx := context.Background()
			if got, err := e.ReportContext(ctx); err != nil || got != string(want) {
				t.Fatalf("first report: err %v, matches golden %t", err, got == string(want))
			}
			before := e.Stats()
			// The cold report must have run (and recorded) real lift
			// queries, or the unchanged counters below prove nothing.
			if before.LiftQueries == 0 || before.Solves == 0 {
				t.Fatalf("cold report recorded %d lift queries, %d solves; want both > 0",
					before.LiftQueries, before.Solves)
			}
			if before.LiftP50 <= 0 || before.LiftP50 > before.LiftP95 {
				t.Fatalf("cold report lift latency p50 %v, p95 %v; want 0 < p50 <= p95",
					before.LiftP50, before.LiftP95)
			}
			got, err := e.ReportContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("repeat report differs from golden")
			}
			after := e.Stats()
			if after.LiftQueries != before.LiftQueries || after.Solves != before.Solves {
				t.Errorf("repeat report re-ran the lift: lift queries %d -> %d, solves %d -> %d",
					before.LiftQueries, after.LiftQueries, before.Solves, after.Solves)
			}
			if after.Encodes != before.Encodes || after.CacheHits != before.CacheHits {
				t.Errorf("repeat report encoded: encodes %d -> %d, encode-cache hits %d -> %d",
					before.Encodes, after.Encodes, before.CacheHits, after.CacheHits)
			}
			if after.SimplifyHits != before.SimplifyHits || after.NormCacheHits+after.NormCacheMisses != before.NormCacheHits+before.NormCacheMisses {
				t.Errorf("repeat report simplified: simplify hits %d -> %d, normal-form lookups %d -> %d",
					before.SimplifyHits, after.SimplifyHits,
					before.NormCacheHits+before.NormCacheMisses, after.NormCacheHits+after.NormCacheMisses)
			}
			if d, n := after.ReportCacheHits-before.ReportCacheHits, len(e.reportRouters()); d != n {
				t.Errorf("repeat report: %d report-cache hits, want one per router (%d)", d, n)
			}
		})
	}
}

// TestRepeatQuerySplicesLiftConcurrent runs whole-network reports from
// several goroutines on one explainer, first cold (every goroutine may
// compute and store the same sections) and then warm (every section
// comes from the report cache): all reports are byte-identical to the
// golden.
func TestRepeatQuerySplicesLiftConcurrent(t *testing.T) {
	sc := scenarios.All()[1]
	dep := synthScenario(t, sc)
	want, err := os.ReadFile(filepath.Join("testdata", "report_"+sc.Name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	e := newExplainer(t, sc, dep, nil)
	for _, phase := range []string{"cold", "warm"} {
		const clients = 4
		got := make([]string, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = e.ReportContext(context.Background())
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s client %d: %v", phase, i, errs[i])
			}
			if got[i] != string(want) {
				t.Errorf("%s client %d: report differs from golden", phase, i)
			}
		}
	}
}

// TestComplementSatisfiable checks the complement's consistency
// verdict: the synthesized deployment itself completes the assume
// side, so it must be satisfiable.
func TestComplementSatisfiable(t *testing.T) {
	sc := scenarios.All()[0]
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	router := firstConfiguredRouter(dep)
	out, err := e.ExplainComplement(router)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable {
		t.Errorf("complement of %s reported unsatisfiable", router)
	}
}

// firstConfiguredRouter picks the alphabetically first configured
// router, for tests that need any one device.
func firstConfiguredRouter(dep config.Deployment) string {
	names := make([]string, 0, len(dep))
	for name := range dep {
		names = append(names, name)
	}
	sort.Strings(names)
	return names[0]
}
