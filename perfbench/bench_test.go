package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ldl1"
)

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs a short window of every workload, untraced and traced,
// and requires a correct result carrying every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ldl1d and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ldl1d")
	if out, err := exec.Command("go", "build", "-o", bin, "ldl1/cmd/ldl1d").CombinedOutput(); err != nil {
		t.Fatalf("build ldl1d: %v\n%s", err, out)
	}
	for _, name := range []string{"serve-read", "serve-mixed", "batch-eval"} {
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{seed: 7, seconds: 0.5, trace: traced, ldl1d: bin, workdir: dir}
			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if o.failed != 0 {
				t.Errorf("%s (traced %v): %d failed of %d", name, traced, o.failed, o.attempted)
			}
			for _, p := range o.problems {
				t.Errorf("%s (traced %v): %s", name, traced, p)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if _, err := report(o, defs); err != nil {
				t.Errorf("%s (traced %v): %v", name, traced, err)
			}
		}
	}
}

// magicOverGrouping lists, per program, the point queries the batch suite
// does not ask: the engine's magic-sets rewrite answers them wrongly (no
// rows where the full model has some).  Each asks for a predicate that
// joins on or recurses through a grouped set.
var magicOverGrouping = map[string][]string{
	"grouping": {"same(s1, Y)", "same(s2, Y)"},
	"partcost": {"result(1, C)", "result(2, C)"},
}

// TestMagicOverGrouping compares the answers to magicOverGrouping with the
// matching filter of the full model.  It fails while the engine's magic
// rewrite answers them wrongly; once it passes, the queries belong back in
// the batch suite's magic lists.  See NOTES.md.
func TestMagicOverGrouping(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for _, bp := range []*batchProgram{groupingProgram(rng, 64, 8), partCostProgram()} {
		eng, err := ldl1.New(bp.src, ldl1.WithMagic(true))
		if err != nil {
			t.Fatalf("%s: %v", bp.name, err)
		}
		m, err := eng.RunCtx(ctx)
		if err != nil {
			t.Fatalf("%s: %v", bp.name, err)
		}
		o := &outcome{}
		for _, q := range magicOverGrouping[bp.name] {
			a, err := eng.QueryCtx(ctx, q)
			if err != nil {
				t.Fatalf("%s: %s: %v", bp.name, q, err)
			}
			checkMagic(bp.name, q, a, m.DB(), o)
		}
		for _, p := range o.problems {
			t.Error(p)
		}
	}
}
