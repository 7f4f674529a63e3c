package main

// Scale-sweep entries (v5): s1/s2/s3 load n-fact EDBs through three
// variants — the pre-bulk per-fact Insert loop (the baseline every earlier
// revision of the engine used), the sharded bulk loader on one worker, and
// the same loader on four — reporting the v5 memory metrics alongside
// timing.  Unlike the e*/j*/q*/u* entries these are self-measured: a cold
// load is the phenomenon, so each entry runs its load exactly once (no
// warm-up, no best-of-reps, no -timeout) and reads runtime.MemStats around
// the timed region itself:
//
//   - bytes_per_fact: heap retained per stored fact — HeapAlloc delta from
//     before input generation to after the input slice is dropped and the
//     heap re-collected, so it counts the store's own footprint (intern
//     tables, fact slice) plus the canonical facts themselves.
//   - bytes_per_fact_read: the same retained-heap figure after the store
//     has served its first reads — one All() and one LookupCols index
//     build per relation — which is what a loaded database costs once a
//     query has touched it.
//   - gc_pause_ns: total stop-the-world pause accumulated during the load.
//   - load_speedup: baseline ns/op divided by this entry's ns/op, set on
//     the bulk variants (the loop variant defines the baseline).  The
//     honest parallel-speedup measure on multi-core hosts; num_cpu in the
//     report header says how many cores the sweep actually had.
//
// Each variant draws its constants from a disjoint integer range, so no
// variant loads the same facts as another.

import (
	"fmt"
	"runtime"
	"time"

	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

// scaleGroup is one sweep point: an entry id and its fact count.
type scaleGroup struct {
	id string
	n  int
}

// scaleGroups returns the sweep sizes for -scale small (CI) or full (the
// committed BENCH_5.json snapshot).
func scaleGroups(scale string) ([]scaleGroup, error) {
	switch scale {
	case "small":
		return []scaleGroup{{"s1", 100_000}, {"s2", 200_000}, {"s3", 400_000}}, nil
	case "full":
		return []scaleGroup{{"s1", 1_000_000}, {"s2", 4_000_000}, {"s3", 10_000_000}}, nil
	}
	return nil, fmt.Errorf("unknown -scale %q (want small or full)", scale)
}

func sizeLabel(n int) string {
	if n >= 1_000_000 && n%1_000_000 == 0 {
		return fmt.Sprintf("%dm", n/1_000_000)
	}
	return fmt.Sprintf("%dk", n/1000)
}

// scaleBaseline carries the loop variant's ns/op to the bulk variants of
// the same group (entries run in declaration order; the group shares an id,
// so -filter can never split it).
type scaleBaseline struct{ ns int64 }

func scaleEntries(scale string) ([]scaleEntry, error) {
	groups, err := scaleGroups(scale)
	if err != nil {
		return nil, err
	}
	var entries []scaleEntry
	for gi, g := range groups {
		base := int64(gi+1) << 40 // disjoint constant ranges per group/variant
		bl := &scaleBaseline{}
		label := sizeLabel(g.n)
		entries = append(entries,
			scaleLoadEntry(g.id, "edb-load-loop-ptr-"+label, g.n, base, bl, true,
				func(fs []*term.Fact) *store.DB {
					db := store.NewDB()
					for _, f := range fs {
						db.Insert(f)
					}
					return db
				}),
			scaleLoadEntry(g.id, "edb-load-bulk-w1-"+label, g.n, base+1<<36, bl, false,
				func(fs []*term.Fact) *store.DB {
					db := store.NewDB()
					db.LoadFacts(fs, store.LoadOpts{Workers: 1})
					return db
				}),
			scaleLoadEntry(g.id, "edb-load-bulk-w4-"+label, g.n, base+2<<36, bl, false,
				func(fs []*term.Fact) *store.DB {
					db := store.NewDB()
					db.LoadFacts(fs, store.LoadOpts{Workers: 4})
					return db
				}),
		)
	}
	return entries, nil
}

func scaleLoadEntry(id, name string, n int, base int64, bl *scaleBaseline, isBaseline bool, load func([]*term.Fact) *store.DB) scaleEntry {
	return scaleEntry{id: id, name: name, run: func() (*benchResult, error) {
		row := measureLoad(n, base, load)
		if isBaseline {
			bl.ns = row.NsPerOp
		} else if bl.ns > 0 && row.NsPerOp > 0 {
			row.LoadSpeedup = float64(bl.ns) / float64(row.NsPerOp)
		}
		return row, nil
	}}
}

// measureLoad generates n facts (untimed), times one load, and derives the
// v5 metrics from MemStats snapshots around the phases.
func measureLoad(n int, base int64, load func([]*term.Fact) *store.DB) *benchResult {
	runtime.GC()
	var m0, m1, m2, m3, m4 runtime.MemStats
	runtime.ReadMemStats(&m0) // heap baseline, before input generation
	fs := workload.ScaleFacts(n, base)
	runtime.GC()
	runtime.ReadMemStats(&m1) // alloc/pause baseline, just before the load
	t0 := time.Now()
	db := load(fs)
	dt := time.Since(t0)
	runtime.ReadMemStats(&m2)
	added := db.Len()
	fs = nil // drop the input so retained bytes are the store's alone
	_ = fs
	runtime.GC()
	runtime.ReadMemStats(&m3)
	row := &benchResult{
		NsPerOp:      dt.Nanoseconds(),
		AllocsPerOp:  int64(m2.Mallocs - m1.Mallocs),
		BytesPerOp:   int64(m2.TotalAlloc - m1.TotalAlloc),
		DerivedFacts: int64(added),
		GCPauseNs:    int64(m2.PauseTotalNs - m1.PauseTotalNs),
	}
	firstReads(db)
	runtime.GC()
	runtime.ReadMemStats(&m4)
	if added > 0 {
		if retained := int64(m3.HeapAlloc) - int64(m0.HeapAlloc); retained > 0 {
			row.BytesPerFact = float64(retained) / float64(added)
		}
		if retained := int64(m4.HeapAlloc) - int64(m0.HeapAlloc); retained > 0 {
			row.BytesPerFactRead = float64(retained) / float64(added)
		}
	}
	if added > 0 && dt > 0 {
		row.FactsPerSec = float64(added) * 1e9 / float64(dt.Nanoseconds())
	}
	runtime.KeepAlive(db)
	return row
}

// firstReads performs the reads bytes_per_fact_read charges for: one All()
// and one first-column LookupCols probe, which builds that column's index,
// on every relation.
func firstReads(db *store.DB) {
	for _, p := range db.Preds() {
		r := db.RelOrNil(p)
		all := r.All()
		if len(all) > 0 && len(all[0].Args) > 0 {
			r.LookupCols([]int{0}, all[0].Args[:1])
		}
	}
}
