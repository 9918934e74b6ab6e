package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"squid/internal/metrics"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tail(xs, 0.95); ok {
		t.Fatal("p95 of 199 samples reported: only 9 lie beyond it")
	}
	xs = append(xs, 200)
	v, ok := tail(xs, 0.95)
	if !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if _, ok := tail(xs[:10], 0.5); ok {
		t.Fatal("median of 10 samples reported as a tail: only 5 lie beyond it")
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Fatalf("median of {3,1,2} = %v, want 2", got)
	}
}

func TestComparators(t *testing.T) {
	if f := metrics.Compare([]string{"a", "b"}, []string{"a", "b"}).FScore; f != 1 {
		t.Errorf("identical sets: F = %v, want 1", f)
	}
	// precision 1/2, recall 1/3: F = 2·(1/6)/(5/6) = 0.4.
	if f := metrics.Compare([]string{"a", "x"}, []string{"a", "b", "c"}).FScore; f < 0.3999 || f > 0.4001 {
		t.Errorf("F = %v, want 0.4", f)
	}
	if f := metrics.Compare([]string{"x"}, []string{"a"}).FScore; f != 0 {
		t.Errorf("disjoint sets: F = %v, want 0", f)
	}
	if !sameRows([]string{"b", "a", "a"}, []string{"a", "b", "a"}) {
		t.Error("same multiset in another order reported different")
	}
	if sameRows([]string{"a", "b"}, []string{"a", "a", "b"}) {
		t.Error("a lost duplicate went unnoticed")
	}
	if !sameValues([]string{"a", "b"}, []string{"b", "a", "a"}) {
		t.Error("same distinct values reported different")
	}
	if sameValues([]string{"a"}, []string{"a", "b"}) {
		t.Error("a missing value went unnoticed")
	}
	if e, missing := missingExample([]string{"a", "c"}, []string{"a", "b"}); !missing || e != "c" {
		t.Errorf("missing example = %q, %v; want c", e, missing)
	}
	if e, missing := missingExample([]string{"a"}, []string{"a", "b"}); missing {
		t.Errorf("missing example = %q, want none", e)
	}
	if firstDiff("a\nb", "a\nc") == "" || firstDiff("a", "a") != "" {
		t.Error("firstDiff")
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced: each
// finishes in seconds, checks its outputs, and reports its metrics.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	tracedMetrics := map[string]bool{}
	for _, wl := range []string{"paper-serve", "scale-cold", "ingest"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 0.3, traced: traced, tiny: true, dir: dir}
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			res := r.result()
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d %v", wl, traced, res.Correct, res.Attempted, r.messages)
			}
			for name, c := range r.classes {
				if c.failed > 0 && !(wl == "ingest" && name == "verify") {
					t.Errorf("%s traced=%v: %d %s operations failed: %v", wl, traced, c.failed, name, r.messages)
				}
			}
			// At tiny scale a run holds too few operations for a p95;
			// every other metric of the result line must be there.
			for _, m := range r.missing() {
				if m != "op_p95_ms" {
					t.Errorf("%s traced=%v: metric %s missing", wl, traced, m)
				}
			}
			for m, v := range res.Metrics {
				want := e2eUnits[m]
				if traced {
					want = layerUnits[m]
				}
				if v.Unit != want {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", wl, traced, m, v.Unit, want)
				}
			}
			if _, ok := res.Metrics["discover_p95_ms"]; ok {
				t.Errorf("%s traced=%v: discover_p95_ms reported as a metric", wl, traced)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "spans-"+wl+"-seed3.jsonl")); err != nil {
					t.Errorf("%s: span log: %v", wl, err)
				}
				for m := range r.layers {
					tracedMetrics[m] = true
				}
			}
		}
	}
	// Every workload-specific per-layer metric is measured by some
	// workload's traced run, and every measured one has a unit.
	for m := range infoLayerUnits {
		if !tracedMetrics[m] {
			t.Errorf("per-layer metric %s measured by no workload", m)
		}
	}
	for m := range tracedMetrics {
		if layerUnits[m] == "" && infoLayerUnits[m] == "" {
			t.Errorf("per-layer metric %s has no unit", m)
		}
	}
}

// TestIngestFailuresDoNotDependOnSeed pins the property the benchmark's
// failed share relies on: the known-fault verify operations fail the
// same number of times whatever the seed.
func TestIngestFailuresDoNotDependOnSeed(t *testing.T) {
	dir := t.TempDir()
	failed := map[int]bool{}
	for _, seed := range []int64{1, 2} {
		r, err := runWorkload(config{workload: "ingest", seed: seed, seconds: 0.3, tiny: true, dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		failed[r.classes["verify"].failed] = true
	}
	if len(failed) != 1 {
		t.Fatalf("verify failures differ between seeds: %v", failed)
	}
}

func TestGenCacheKeyFollowsConfig(t *testing.T) {
	a, err := sourceKey("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sourceKey("b")
	if err != nil {
		t.Fatal(err)
	}
	again, _ := sourceKey("a") // succeeded just above
	if a == b || a != again {
		t.Fatalf("keys a=%s b=%s a'=%s: want a stable key per input", a, b, again)
	}
}

// TestManifestMatchesResult pins the result lines to BENCHMARK.json:
// every workload must print every end-to-end metric it declares (and a
// traced run every per-layer one), each in its declared unit.
func TestManifestMatchesResult(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var m struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		decls []decl
		units map[string]string
	}{{"end_to_end", m.EndToEnd, e2eUnits}, {"per_layer", m.PerLayer, layerUnits}} {
		if len(c.decls) != len(c.units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the result line holds %d", c.what, len(c.decls), len(c.units))
		}
		for _, d := range c.decls {
			if u, ok := c.units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s declared in %q, result line has %q (present %v)", c.what, d.Name, d.Unit, u, ok)
			}
		}
	}
}
