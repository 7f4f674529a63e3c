package store

import (
	"fmt"
	"sync"
	"testing"

	"ldl1/internal/term"
)

// builtIndexes returns the published index snapshot (nil when no index has
// been built), for white-box assertions.
func builtIndexes(r *Relation) []*index {
	if p := r.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

func TestIndexThresholdSkipsSmallRelations(t *testing.T) {
	r := NewRelation("p", true)
	for i := 0; i < IndexThreshold-1; i++ {
		r.Insert(term.NewFact("p", term.Int(i%3), term.Int(i)))
	}
	got, indexed := r.LookupCols([]int{0}, []term.Term{term.Int(1)})
	if indexed {
		t.Errorf("LookupCols reported an index probe on a %d-fact relation", r.Len())
	}
	if builtIndexes(r) != nil {
		t.Errorf("index built below IndexThreshold (%d facts)", r.Len())
	}
	want := 0
	for i := 0; i < IndexThreshold-1; i++ {
		if i%3 == 1 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("scan fallback returned %d facts, want %d", len(got), want)
	}

	// Crossing the threshold enables (and builds) the index; results are
	// unchanged.
	for i := IndexThreshold - 1; i < 4*IndexThreshold; i++ {
		r.Insert(term.NewFact("p", term.Int(i%3), term.Int(i)))
	}
	got2, indexed2 := r.LookupCols([]int{0}, []term.Term{term.Int(1)})
	if !indexed2 {
		t.Errorf("LookupCols did not build an index on a %d-fact relation", r.Len())
	}
	if builtIndexes(r) == nil {
		t.Error("no index snapshot published after threshold crossed")
	}
	if len(got2) != len(r.scanCols([]int{0}, []term.Term{term.Int(1)})) {
		t.Errorf("indexed lookup returned %d facts, scan says %d", len(got2), len(r.scanCols([]int{0}, []term.Term{term.Int(1)})))
	}
}

func TestCompositeLookup(t *testing.T) {
	for _, useIdx := range []bool{true, false} {
		r := NewRelation("p", useIdx)
		for i := 0; i < 120; i++ {
			r.Insert(term.NewFact("p",
				term.Int(i%4), term.Int(i%5), term.Atom(fmt.Sprintf("x%d", i))))
		}
		for a := 0; a < 4; a++ {
			for b := 0; b < 5; b++ {
				got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
				want := r.scanCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
				if len(got) != len(want) {
					t.Fatalf("useIdx=%v: LookupCols(0=%d,1=%d) = %d facts, scan says %d",
						useIdx, a, b, len(got), len(want))
				}
				for _, f := range got {
					if !term.Equal(f.Args[0], term.Int(a)) || !term.Equal(f.Args[1], term.Int(b)) {
						t.Fatalf("useIdx=%v: stray fact %s", useIdx, f)
					}
				}
			}
		}
		// Absent pair.
		if got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(9), term.Int(9)}); len(got) != 0 {
			t.Fatalf("useIdx=%v: absent pair returned %d facts", useIdx, len(got))
		}
	}
}

func TestCompositeIndexMaintainedByInsert(t *testing.T) {
	r := NewRelation("p", true)
	for i := 0; i < 2*IndexThreshold; i++ {
		r.Insert(term.NewFact("p", term.Int(i%2), term.Int(i%3), term.Int(i)))
	}
	// Build single-column and composite indexes.
	r.LookupCols([]int{1}, []term.Term{term.Int(0)})
	r.LookupCols([]int{0, 1}, []term.Term{term.Int(0), term.Int(0)})
	if n := len(builtIndexes(r)); n != 2 {
		t.Fatalf("expected 2 indexes, snapshot has %d", n)
	}
	before, indexed := r.LookupCols([]int{0, 1}, []term.Term{term.Int(1), term.Int(2)})
	if !indexed {
		t.Fatal("composite probe not indexed")
	}
	f := term.NewFact("p", term.Int(1), term.Int(2), term.Int(999))
	r.Insert(f)
	after, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(1), term.Int(2)})
	if len(after) != len(before)+1 {
		t.Fatalf("composite index not maintained: %d -> %d facts", len(before), len(after))
	}
	single, _ := r.LookupCols([]int{1}, []term.Term{term.Int(2)})
	found := false
	for _, g := range single {
		if g == f {
			found = true
		}
	}
	if !found {
		t.Error("single-column index not maintained by Insert")
	}
	// A batch into the indexed relation reaches both indexes without
	// rebuilding them.
	batch := []*term.Fact{
		term.NewFact("p", term.Int(1), term.Int(2), term.Int(1000)),
		term.NewFact("p", term.Int(1), term.Int(2), term.Int(1001)),
	}
	if n := r.InsertBatch(batch, LoadOpts{}); n != 2 {
		t.Fatalf("InsertBatch added %d, want 2", n)
	}
	if got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(1), term.Int(2)}); len(got) != len(after)+2 {
		t.Fatalf("composite index not maintained by InsertBatch: %d -> %d facts", len(after), len(got))
	}
	if got, _ := r.LookupCols([]int{1}, []term.Term{term.Int(2)}); len(got) != len(single)+2 || got[len(got)-1] != batch[1] {
		t.Error("single-column index not maintained by InsertBatch")
	}
	if n := len(builtIndexes(r)); n != 2 {
		t.Fatalf("InsertBatch changed the index snapshot: %d indexes", n)
	}
}

func TestCompositeLookupAllHashesCollide(t *testing.T) {
	defer forceCollisions(t)()

	r := NewRelation("p", true)
	for i := 0; i < 60; i++ {
		r.Insert(term.NewFact("p", term.Int(i%3), term.Int(i%4), term.Int(i)))
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
			want := r.scanCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
			if len(got) != len(want) {
				t.Fatalf("colliding hashes: LookupCols(%d,%d) = %d facts, want %d", a, b, len(got), len(want))
			}
		}
	}
}

// TestConcurrentLookupBuild races many readers against the first index
// build on a sharded, bulk-loaded relation; run under -race this exercises
// the lock-free snapshot path, the double-checked construction, and point
// reads through the shard tables, which must all agree on one canonical
// pointer per fact.
func TestConcurrentLookupBuild(t *testing.T) {
	fs := make([]*term.Fact, 2000)
	for i := range fs {
		fs[i] = term.NewFact("p", term.Int(int64(i%10)), term.Int(int64(i%7)), term.Int(int64(i)))
	}
	r := NewRelation("p", true)
	r.InsertBatch(fs, LoadOpts{Workers: 4, Shards: 4})
	if r.ShardCount() != 4 {
		t.Fatalf("ShardCount=%d, want 4", r.ShardCount())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				a, b := (g+k)%10, k%7
				got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
				for _, f := range got {
					if !term.Equal(f.Args[0], term.Int(a)) || !term.Equal(f.Args[1], term.Int(b)) {
						errs <- fmt.Sprintf("goroutine %d: stray fact %s", g, f)
						return
					}
				}
				single, _ := r.LookupCols([]int{1}, []term.Term{term.Int(b)})
				if len(single) == 0 {
					errs <- fmt.Sprintf("goroutine %d: empty single-column lookup", g)
					return
				}
				want := fs[(g*200+k)%len(fs)]
				fresh := term.NewFact("p", want.Args...)
				if got, ok := r.Get(fresh); !ok || got != want {
					errs <- fmt.Sprintf("goroutine %d: Get(%s) not canonical", g, fresh)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := len(builtIndexes(r)); n != 2 {
		t.Errorf("expected exactly 2 indexes after racing builds, got %d", n)
	}
}
