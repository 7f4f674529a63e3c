package main

// Tracing: the traced run records a span around each call the benchmark
// makes into a layer's public functions.  Spans stay in memory and are
// written out when the run ends; self time is a span's duration minus the
// part of it its child spans cover.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldl1"
	"ldl1/internal/store"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span identifier, so a parent can hand its id to
// children before it ends.
func (t *tracer) newID() int { return int(t.ids.Add(1)) }

func (t *tracer) record(id, parent int, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	t.mu.Unlock()
}

// byName returns the durations of every span with the given name.
func (t *tracer) byName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns the self time of every span with the given name: its
// duration minus the union of its children's intervals.
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, time.Duration(s.End-s.Start-covered))
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// layerValues starts a traced run's metric map with every per-layer
// metric at 0, the value of a layer the workload does not exercise.
func layerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

// meanStage is the mean per-pass time spent in one stage, in ms.
func meanStage(passes []*passStats, name string) float64 {
	var sum time.Duration
	for _, ps := range passes {
		sum += ps.stages[name]
	}
	return ms(sum) / float64(len(passes))
}

// storeBytes measures the live heap a set of models holds per fact: once
// as loaded, and again after one read of every relation (reading may
// decode compactly stored facts).  load must build and return the models;
// the heap is measured against a baseline taken before it runs.
func storeBytes(load func() ([]*store.DB, error)) (loaded, read float64, facts int, err error) {
	base := liveHeap()
	dbs, err := load()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, db := range dbs {
		facts += db.Len()
	}
	afterLoad := liveHeap()
	for _, db := range dbs {
		for _, p := range db.Preds() {
			_ = db.Rel(p).All()
		}
	}
	afterRead := liveHeap()
	runtime.KeepAlive(dbs)
	n := float64(facts)
	return float64(int64(afterLoad-base)) / n, float64(int64(afterRead-base)) / n, facts, nil
}

func traceBatch(cfg *runConfig) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{values: layerValues()}
	suite, ref, err := batchSetup(ctx, cfg.seed, o)
	if err != nil {
		return nil, err
	}
	// Half the window untraced, half traced: the difference between the
	// two halves' median pass times is the tracing overhead.
	plain, err := passLoop(ctx, suite, ref, nil, seconds(cfg.seconds/2), 1, o)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	traced, err := passLoop(ctx, suite, ref, tr, seconds(cfg.seconds/2), 1, o)
	if err != nil {
		return nil, err
	}
	gcValues(o.values, &gc0)
	var plainWall, tracedWall []time.Duration
	for _, ps := range plain {
		plainWall = append(plainWall, ps.wall)
	}
	var st, mst ldl1.Stats
	reads, facts := 0, 0
	for _, ps := range traced {
		tracedWall = append(tracedWall, ps.wall)
		st.Merge(&ps.stats)
		mst.Merge(&ps.magicStats)
		reads += len(ps.reads)
		facts += ps.modelFacts
	}
	n := float64(len(traced))
	v := o.values
	v["parser.program_ms"] = meanStage(traced, "parser.program")
	v["analyze.vet_ms"] = meanStage(traced, "analyze.vet")
	v["ldl1.compile_ms"] = meanStage(traced, "ldl1.compile")
	v["eval.run_ms"] = meanStage(traced, "eval.run")
	v["magic.query_ms"] = ms(percentile(tr.byName("magic.query"), 50))
	v["magic.derived_per_query"] = ratio(float64(mst.Derived), float64(reads))
	evalValues(v, &st, n)
	v["store.model_facts"] = float64(facts) / n
	loaded, read, _, err := storeBytes(func() ([]*store.DB, error) {
		var dbs []*store.DB
		_, err := runPass(ctx, suite, nil, o, func(db *store.DB) { dbs = append(dbs, db) })
		return dbs, err
	})
	if err != nil {
		return nil, err
	}
	v["store.bytes_per_fact_loaded"] = loaded
	v["store.bytes_per_fact_read"] = read
	pt := percentile(plainWall, 50)
	v["trace.overhead_pct"] = 100 * (ms(percentile(tracedWall, 50)) - ms(pt)) / ms(pt)
	return o, tr.write(filepath.Join(cfg.workdir, fmt.Sprintf("trace-batch-eval-%d.jsonl", cfg.seed)))
}

// evalValues fills the eval.* counters from summed stats over n units
// (passes or admissions).
func evalValues(v map[string]float64, st *ldl1.Stats, n float64) {
	v["eval.derived"] = float64(st.Derived) / n
	v["eval.firings"] = float64(st.Firings) / n
	v["eval.iterations"] = float64(st.Iterations) / n
	v["eval.plans_reordered"] = float64(st.PlansReordered) / n
	v["eval.derived_per_firing"] = ratio(float64(st.Derived), float64(st.Firings))
	v["eval.index_hit_ratio"] = ratio(float64(st.IndexHits), float64(st.IndexHits+st.FullScans))
}

// gcValues records the collector's work in this process since before.
func gcValues(v map[string]float64, before *runtime.MemStats) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	v["runtime.gc_cycles"] = float64(now.NumGC - before.NumGC)
	v["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-before.PauseTotalNs) / 1e6
}
