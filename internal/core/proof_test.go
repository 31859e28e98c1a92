package core

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/scenarios"
)

// TestReportWithProofsMatchesGolden regenerates every scenario's report
// with proof verification on and pins three properties at once: the
// report is byte-identical to the committed golden (logging and
// checking are observation only), every Unsat verdict along the way
// carried a proof the independent checker accepted (a rejected proof
// aborts the report with an error), and the checker actually ran.
func TestReportWithProofsMatchesGolden(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dep := synthScenario(t, sc)
			opts := DefaultOptions()
			opts.VerifyProofs = true
			e, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Report()
			if err != nil {
				t.Fatalf("report with proof verification: %v", err)
			}
			path := filepath.Join("testdata", "report_"+sc.Name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("verified report for %s differs from golden %s.\ngot:\n%s", sc.Name, path, got)
			}
			st := e.Stats()
			if st.ProofChecks == 0 {
				t.Fatalf("no proofs were checked while generating the report")
			}
			if st.ProofOps == 0 || st.ProofLemmas == 0 {
				t.Fatalf("proof stats empty: %+v", st)
			}
		})
	}
}

// TestExplanationVerifiedFlag pins the Verified stamp: on with
// verification, off without.
func TestExplanationVerifiedFlag(t *testing.T) {
	sc := scenarios.All()[0]
	dep := synthScenario(t, sc)

	plain := newExplainer(t, sc, dep, nil)
	var routers []string
	for name := range dep {
		routers = append(routers, name)
	}
	sort.Strings(routers)
	router := routers[0]
	ex, err := plain.ExplainAll(router)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verified {
		t.Fatalf("explanation stamped Verified without proof verification")
	}

	opts := DefaultOptions()
	opts.VerifyProofs = true
	verified, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	vex, err := verified.ExplainAll(router)
	if err != nil {
		t.Fatal(err)
	}
	if !vex.Verified {
		t.Fatalf("explanation not stamped Verified under VerifyProofs")
	}
	if vex.Subspec == nil || ex.Subspec == nil {
		t.Fatalf("expected lifted subspecs in both runs")
	}
	if got, want := subspecStrings(vex.Subspec), subspecStrings(ex.Subspec); len(got) != len(want) {
		t.Fatalf("verification changed the subspec: %v vs %v", got, want)
	}
}

// TestReportWithProofsIdenticalAcrossWorkerCounts combines the two
// contracts above: with proof verification on, the report stays
// byte-identical to the committed golden at every router-pool width
// (GOMAXPROCS). It pins that neither scheduling nor verification
// perturbs the output. It also pins the proof work: how many Unsat
// verdicts the checker validated and how many trace operations and
// lemmas it consumed. Those are a property of the solvers' traces, not
// of scheduling, so a change to the proof layer that keeps them checks
// the same verdicts over the same traces.
func TestReportWithProofsIdenticalAcrossWorkerCounts(t *testing.T) {
	work := map[string][3]int{ // ProofChecks, ProofOps, ProofLemmas
		"scenario1": {8, 3800, 26},
		"scenario2": {12, 22729, 388},
		"scenario3": {16, 23351, 521},
	}
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			wantWork, ok := work[sc.Name]
			if !ok {
				t.Fatalf("no pinned proof work for %s", sc.Name)
			}
			dep := synthScenario(t, sc)
			want, err := os.ReadFile(filepath.Join("testdata", "report_"+sc.Name+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			for _, procs := range []int{1, 2, 8} {
				setGOMAXPROCS(t, procs)
				opts := DefaultOptions()
				opts.VerifyProofs = true
				e, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Report()
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if got != string(want) {
					t.Errorf("GOMAXPROCS=%d: verified report differs from golden", procs)
				}
				st := e.Stats()
				if w := [3]int{st.ProofChecks, st.ProofOps, st.ProofLemmas}; w != wantWork {
					t.Errorf("GOMAXPROCS=%d: proof checks/ops/lemmas = %v, want %v", procs, w, wantWork)
				}
			}
		})
	}
}
