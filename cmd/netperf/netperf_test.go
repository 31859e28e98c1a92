package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySizes shrink every workload so the whole suite runs in seconds.
var tinySizes = sizes{fabricRouters: 12, whatifRouters: 10, serveVariants: 2}

func tinySettings(t *testing.T, workload string, trace bool) settings {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	seconds := 0.3
	if workload == "serve-mix" {
		seconds = 1.2 // enough requests at 10 req/s for some to miss the cache
	}
	return settings{workload: workload, seed: 7, seconds: seconds, trace: trace, parts: 1, root: root, sizes: tinySizes}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T, root string) (e2e, layer []benchMetric) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj.EndToEnd, bj.PerLayer
}

// TestTinyRunsEmitBenchmarkMetrics runs every workload at tiny sizes,
// untraced and traced, and checks each emits every metric BENCHMARK.json
// names for its mode, with the unit BENCHMARK.json gives.
func TestTinyRunsEmitBenchmarkMetrics(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := readBenchmarkJSON(t, root)
	if len(e2e) != len(endToEnd) || len(layer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, netperf %d/%d", len(e2e), len(layer), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinySettings(t, w.name, trace)
			res, _, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failures=%v", w.name, trace, res.Correct, res.Attempted, res.Failures)
			}
			want := e2e
			if trace {
				want = layer
			}
			var out strings.Builder
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%t: last line: %v", w.name, trace, err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%t: %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, *got.Value)
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {1, 1}, {10, 10}, {20, 20}, {21, 11}, {22, 12}, {100, 90}, {1000, 990}} {
		xs := seq(c.n)
		if got := tail(xs); got != c.want {
			t.Errorf("tail of 1..%d = %v, want %v", c.n, got, c.want)
		}
		if c.n > 0 && xs[0] != float64(c.n) {
			t.Errorf("tail reordered its input")
		}
	}
}

func TestFieldsMissingReadsNull(t *testing.T) {
	f := fieldsOf(struct {
		Solves int
		Nested struct{ Hits int }
		Names  []string
		None   []string
	}{Solves: 3, Nested: struct{ Hits int }{4}, Names: []string{"a", "b"}})
	if v, ok := f.num("None"); !ok || v != 0 {
		t.Errorf("None = %v, %t (a nil list is present and empty)", v, ok)
	}
	if v, ok := f.num("Solves"); !ok || v != 3 {
		t.Errorf("Solves = %v, %t", v, ok)
	}
	if v, ok := f.num("Nested.Hits"); !ok || v != 4 {
		t.Errorf("Nested.Hits = %v, %t", v, ok)
	}
	if v, ok := f.num("Names"); !ok || v != 2 {
		t.Errorf("Names = %v, %t (a list counts its entries)", v, ok)
	}
	for _, p := range []string{"Conflicts", "Nested.Misses", "Solves.x"} {
		if _, ok := f.num(p); ok {
			t.Errorf("%s: found in a value without it", p)
		}
	}

	// An engine counter that is gone turns the metrics computed from it
	// into nulls, not zeros.
	r := newRunner(context.Background(), settings{workload: "test", trace: true, parts: 1})
	var s engineSum
	s.add(nil, fields{"Solves": 1.0}, false, 1)
	s.record(r)
	res := r.result()
	for _, name := range []string{"sat.solves", "engine.encode_cache_hit_share"} {
		if m, ok := res.Metrics[name]; !ok || m.Value != nil {
			t.Errorf("%s = %+v, want null", name, m)
		}
	}
	var out strings.Builder
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"sat.solves":{"value":null`) {
		t.Errorf("summary line does not carry the null:\n%s", out.String())
	}
}

// TestFlippedByteFailsOps runs paper-cli against goldens with one byte
// flipped in one of them: every report of that scenario must count as
// a failed op, and only those.
func TestFlippedByteFailsOps(t *testing.T) {
	cfg := tinySettings(t, "paper-cli", false)
	fake := t.TempDir()
	if err := os.MkdirAll(filepath.Join(fake, goldenDir), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scenario1", "scenario2", "scenario3"} {
		file := "report_" + name + ".golden"
		b, err := os.ReadFile(filepath.Join(cfg.root, goldenDir, file))
		if err != nil {
			t.Fatal(err)
		}
		if name == "scenario2" {
			b[len(b)/2] ^= 0x01
		}
		if err := os.WriteFile(filepath.Join(fake, goldenDir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.root = fake
	res, _, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("correct=%t failed=%d attempted=%d, want some but not all ops failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, f := range res.Failures {
		if !strings.HasPrefix(f, "scenario2:") {
			t.Errorf("unexpected failure %q", f)
		}
	}
}

// TestPartsSplitAndMerge checks that a run's parts split its work into
// contiguous shares and that merging pools their samples.
func TestPartsSplitAndMerge(t *testing.T) {
	next := 0
	for i := 0; i < 4; i++ {
		r := newRunner(context.Background(), settings{part: i, parts: 4})
		count, offset := r.share(10)
		if offset != next || count < 2 || count > 3 {
			t.Errorf("part %d of 4: %d ops at %d, want 2 or 3 at %d", i, count, offset, next)
		}
		next += count
	}
	if next != 10 {
		t.Errorf("shares cover %d of 10 ops", next)
	}

	res := merge(settings{parts: 2}, []part{
		{SetupS: 1, LatMS: []float64{1, 2, 3}, CPUMS: 6, PeakRSSMB: 10, Attempted: 3},
		{SetupS: 3, LatMS: []float64{4, 5}, CPUMS: 9, PeakRSSMB: 30, Attempted: 3, Failed: 1, Failures: []string{"x"}},
	})
	for name, want := range map[string]float64{"setup_s": 2, "op_p50_ms": 3, "op_tail_ms": 5, "cpu_ms_per_op": 3, "peak_rss_mb": 20} {
		if m := res.Metrics[name]; m.Value == nil || *m.Value != want {
			t.Errorf("%s = %+v, want %v", name, m, want)
		}
	}
	if res.Attempted != 6 || res.Failed != 1 || res.Correct || len(res.Failures) != 1 {
		t.Errorf("merged counts: %+v", res)
	}
}

func TestPinnedDigestParses(t *testing.T) {
	for _, w := range workloads {
		if w.name != "fabric-stream" {
			continue
		}
		for part := 0; part < w.parts; part++ {
			if _, ok := pinnedDigest(7, part, fullSizes.fabricRouters); !ok {
				t.Errorf("no pinned fabric-stream digest for the default seed, part %d", part)
			}
		}
	}
	if _, ok := pinnedDigest(7, 0, tinySizes.fabricRouters); ok {
		t.Fatal("a digest is pinned for the tiny size")
	}
}
