package bench

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

func TestSeedTable(t *testing.T) {
	tbl, err := SeedTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	// §4-C1: every scenario's seed exceeds 1000 atoms.
	for _, row := range tbl.Rows {
		atoms, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if atoms <= 1000 {
			t.Errorf("%s: %d atoms, paper claims >1000", row[0], atoms)
		}
	}
}

func TestSimplifyTable(t *testing.T) {
	tbl, err := SimplifyTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tbl.Rows))
	}
	// The passes column, pinned: the pass depth is memoized per
	// normal-form entry, and must equal the closure walk it replaced.
	wantPasses := map[string]string{"scenario1": "7", "scenario2": "6", "scenario3": "5"}
	for _, row := range tbl.Rows {
		seed, _ := strconv.Atoi(row[2])
		simplified, _ := strconv.Atoi(row[3])
		if simplified >= seed {
			t.Errorf("%s/%s: no reduction (%d -> %d)", row[0], row[1], seed, simplified)
		}
		if row[6] != wantPasses[row[0]] {
			t.Errorf("%s/%s: passes = %s, want %s", row[0], row[1], row[6], wantPasses[row[0]])
		}
	}
}

func TestLinearityTable(t *testing.T) {
	tbl, err := LinearityTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d, want at least 4", len(tbl.Rows))
	}
	// §4-C3: residual grows monotonically and sub-quadratically.
	prev := 0
	for i, row := range tbl.Rows {
		residual, _ := strconv.Atoi(row[1])
		if residual < prev {
			t.Errorf("row %d: residual shrank (%d -> %d)", i, prev, residual)
		}
		prev = residual
		n, _ := strconv.Atoi(row[0])
		if residual > 20*n {
			t.Errorf("residual %d at %d vars is super-linear", residual, n)
		}
	}
}

func TestPerVarTable(t *testing.T) {
	tbl, err := PerVarTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // R1 in scenario 1 has 4 fields
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// §4-C4: every per-variable residual is tiny.
	for _, row := range tbl.Rows {
		atoms, _ := strconv.Atoi(row[2])
		if atoms > 10 {
			t.Errorf("%s: per-variable residual %d too large", row[0], atoms)
		}
	}
}

func TestFigureTable(t *testing.T) {
	tbl, err := FigureTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	byFigure := map[string]string{}
	var complete []string
	for _, row := range tbl.Rows {
		byFigure[row[0]] = row[3]
		complete = append(complete, row[4])
	}
	// Fig. 4's block admits a behavior the seed rejects; the others are
	// sufficient.
	if got := strings.Join(complete, ","); got != "true,false,true,true" {
		t.Errorf("complete column %s, want true,false,true,true", got)
	}
	if !strings.Contains(byFigure["Fig. 5"], "!(P1->R1->R2->P2)") {
		t.Errorf("Fig. 5 content: %q", byFigure["Fig. 5"])
	}
	if byFigure["Fig. 5 (empty)"] != "{ }" {
		t.Errorf("Fig. 5 empty subspec: %q", byFigure["Fig. 5 (empty)"])
	}
	if !strings.Contains(byFigure["Fig. 4"], ">>") {
		t.Errorf("Fig. 4 misses the preference: %q", byFigure["Fig. 4"])
	}
}

func TestInterpretationTable(t *testing.T) {
	tbl, err := InterpretationTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	blocked, _ := strconv.Atoi(tbl.Rows[0][1])
	lastResort, _ := strconv.Atoi(tbl.Rows[1][1])
	if lastResort <= blocked {
		t.Errorf("interpretation 2 must be more redundant: %d vs %d", lastResort, blocked)
	}
}

func TestAblationTable(t *testing.T) {
	tbl, err := AblationTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	passes := map[string]string{}
	for _, row := range tbl.Rows {
		n, _ := strconv.Atoi(row[1])
		sizes[row[0]] = n
		passes[row[0]] = row[2]
	}
	full := sizes["full (15 rules, fixpoint)"]
	noEq := sizes["without S14 eq-propagation"]
	seed := sizes["unsimplified seed"]
	if !(full < noEq && noEq < seed) {
		t.Errorf("ablation ordering broken: full=%d noEq=%d seed=%d", full, noEq, seed)
	}
	want := map[string]string{
		"full (15 rules, fixpoint)":  "5",
		"without S14 eq-propagation": "1",
		"single pass":                "2",
		"unsimplified seed":          "0",
	}
	for name, w := range want {
		if passes[name] != w {
			t.Errorf("%s: passes = %q, want %s", name, passes[name], w)
		}
	}
}

func TestRuleFireTable(t *testing.T) {
	tbl, err := RuleFireTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// All 45 counts, pinned: a counting run over each seed must match
	// the per-seed walks it replaced.
	want := map[string][3]string{
		"S1:const-fold":      {"2", "8", "12"},
		"S2:double-negation": {"0", "0", "0"},
		"S3:neg-const":       {"2", "2", "2"},
		"S4:and-identity":    {"224", "243", "302"},
		"S5:or-identity":     {"51", "57", "55"},
		"S6:complement":      {"0", "0", "0"},
		"S7:implies":         {"161", "169", "153"},
		"S8:iff":             {"0", "0", "0"},
		"S9:ite":             {"0", "5", "7"},
		"S10:eq-reflexive":   {"0", "2", "2"},
		"S11:eq-const":       {"0", "1", "1"},
		"S12:domain-fold":    {"0", "1", "0"},
		"S13:absorption":     {"6", "5", "4"},
		"S14:eq-propagation": {"6", "6", "4"},
		"S15:neg-normal":     {"3", "1", "3"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Errorf("unexpected rule row %q", row[0])
			continue
		}
		if got := [3]string{row[1], row[2], row[3]}; got != w {
			t.Errorf("%s: fires = %v, want %v", row[0], got, w)
		}
	}
}

// TestRewriteTable pins the rewrite table's max-passes and rule-fires
// columns: the memoized pass depth and the counting runs must
// reproduce the per-seed closure walks they replaced.
func TestRewriteTable(t *testing.T) {
	tbl, err := RewriteTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{ // workload -> {max-passes, rule-fires}
		"scenario1":   {"7", "1344"},
		"scenario2":   {"6", "1424"},
		"scenario3":   {"5", "1530"},
		"grid_4x4":    {"11", "9262"},
		"fattree_4":   {"10", "14771"},
		"rand_24_s42": {"11", "14364"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		if got := [2]string{row[4], row[5]}; got != want[row[0]] {
			t.Errorf("%s: {max-passes, rule-fires} = %v, want %v", row[0], got, want[row[0]])
		}
	}
}

func TestComplementTable(t *testing.T) {
	tbl, err := ComplementTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d, want >= 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] == "R3" {
			t.Fatal("complement must not constrain the focused router")
		}
	}
}

func TestTableJSON(t *testing.T) {
	tbl := &Table{ID: "x", Caption: "c", Columns: []string{"a", "b"}}
	tbl.AddRow(1, "two")
	j := tbl.JSON()
	rows := j["rows"].([]map[string]string)
	if len(rows) != 1 || rows[0]["a"] != "1" || rows[0]["b"] != "two" {
		t.Fatalf("JSON = %v", j)
	}
}

func TestDiffTableQuick(t *testing.T) {
	tbl, err := DiffTable(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode covers the three seed scenarios; every scenario has at
	// least an action-flip, a pref-change, and a med-change site.
	if len(tbl.Rows) < 9 {
		t.Fatalf("rows = %d, want >= 9", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("%s %s: incremental report not byte-identical to cold", row[0], row[1])
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "x", Caption: "c", Columns: []string{"a", "bb"}}
	tbl.AddRow(1, "hello")
	tbl.AddRow(2.5, "y")
	out := tbl.Render()
	for _, want := range []string{"## x", "a    bb", "1    hello", "2.5  y"} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
}
