// Command perfbench is the repository benchmark.  It drives the LDL1
// engine from outside, through its public packages and the ldl1d server,
// on three workloads generated from --seed:
//
//	serve-read   closed-loop answer-cache hits against ldl1d
//	serve-mixed  open-loop cache misses and writes against ldl1d
//	batch-eval   in-process parse → vet → compile → fixpoint → magic passes
//
// Every run checks the engine's answers.  The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
// metrics holds every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1), each as {"value", "unit"}.  BENCHMARK.json at the
// repository root lists the same names; NOTES.md defines each metric per
// workload.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, measured with
// tracing off.  Each is reported on every workload; NOTES.md gives the
// per-workload definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_rps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"batch_pass_p50_ms", "ms"},
	{"batch_pass_p90_ms", "ms"},
	{"eval_facts_per_s", "1/s"},
}

// perLayer are the traced run's metrics.  A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"parser.program_ms", "ms"},
	{"parser.query_us", "us"},
	{"analyze.vet_ms", "ms"},
	{"ldl1.compile_ms", "ms"},
	{"ldl1.read_hit_us", "us"},
	{"ldl1.read_miss_us", "us"},
	{"ldl1.allocs_per_read", "count"},
	{"ldl1.bytes_per_read", "B"},
	{"ldl1.rows_per_read", "count"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions_per_write", "count"},
	{"incr.materialize_ms", "ms"},
	{"incr.apply_p50_ms", "ms"},
	{"incr.apply_p90_ms", "ms"},
	{"incr.allocs_per_tx", "count"},
	{"incr.bytes_per_tx", "B"},
	{"incr.net_facts_per_tx", "count"},
	{"incr.deleted_overestimate_per_tx", "count"},
	{"incr.rederived_per_tx", "count"},
	{"incr.regrouped_per_tx", "count"},
	{"incr.dred_precision", "ratio"},
	{"eval.run_ms", "ms"},
	{"eval.derived", "count"},
	{"eval.firings", "count"},
	{"eval.iterations", "count"},
	{"eval.derived_per_firing", "ratio"},
	{"eval.index_hit_ratio", "ratio"},
	{"eval.plans_reordered", "count"},
	{"magic.query_ms", "ms"},
	{"magic.derived_per_query", "count"},
	{"store.model_facts", "count"},
	{"store.bytes_per_fact_loaded", "B"},
	{"store.bytes_per_fact_read", "B"},
	{"server.admit_ms", "ms"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.reads", "count"},
	{"server.writes", "count"},
	{"server.read_errors", "count"},
	{"server.write_errors", "count"},
	{"client.overhead_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"load.lag_p99_ms", "ms"},
	{"load.unsent", "count"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runConfig) (*outcome, error){
	"serve-read":  runServeRead,
	"serve-mixed": runServeMixed,
	"batch-eval":  runBatch,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	ldl1d   string // ldl1d binary, for the serve workloads
	workdir string // where generated programs are written
}

// outcome is what a workload run measured: its op counts, whether every
// answer checked out, and its metric values by name.
type outcome struct {
	attempted, failed int64
	problems          []string // correctness failures, empty when correct
	values            map[string]float64
}

// fail records a correctness failure; a failure that repeats (say, on
// every pass) is recorded once.
func (o *outcome) fail(format string, args ...any) {
	p := fmt.Sprintf(format, args...)
	for _, q := range o.problems {
		if q == p {
			return
		}
	}
	o.problems = append(o.problems, p)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report renders an outcome as the result line, insisting that the run
// measured every metric of the requested set.
func report(o *outcome, defs []metricDef) ([]byte, error) {
	res := resultJSON{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(res)
}

func main() {
	var cfg runConfig
	workload := flag.String("workload", "", "workload to run: serve-read, serve-mixed or batch-eval")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 10, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.ldl1d, "ldl1d", "", "path of the ldl1d binary (serve workloads)")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for generated input files")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.trace = *seed, *seconds, *trace == 1

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, names)
		os.Exit(2)
	}
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	start := time.Now()
	o, err := run(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := report(o, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", *workload, cfg.seed, time.Since(start).Seconds())
	fmt.Println(string(line))
}
