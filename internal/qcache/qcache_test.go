package qcache

import (
	"fmt"
	"sync"
	"testing"

	"ldl1/internal/term"
)

func key(i int) Key {
	return Key{Pred: fmt.Sprintf("p%d", i), Adorn: "bf", Consts: "a"}
}

func entry(preds ...string) *Entry {
	cone := map[string]bool{}
	for _, p := range preds {
		cone[p] = true
	}
	return &Entry{Cone: cone}
}

// put fills c at its current generation, as a reader with no racing
// update does.
func put(c *Cache, k Key, e *Entry) { c.PutAt(k, e, c.Gen()) }

func TestCacheGetPut(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	e := entry("p1", "base")
	put(c, key(1), e)
	got, ok := c.Get(key(1))
	if !ok || got != e {
		t.Fatal("stored entry not returned")
	}
	hits, misses, _ := c.Counters()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

// TestCacheLRUEviction pins LRU order and capacity eviction for both users
// of the LRU: the answer cache, and the plain LRU the engine keeps its
// compiled magic forms in (keyed by predicate and adornment only).
func TestCacheLRUEviction(t *testing.T) {
	answers := New(2)
	forms := NewLRU[string](2)
	formKey := func(i int) Key { return Key{Pred: fmt.Sprintf("p%d", i), Adorn: "bf"} }
	for _, in := range []struct {
		name string
		put  func(i int)
		get  func(i int) bool
		len  func() int
	}{
		{"answers",
			func(i int) { put(answers, key(i), entry(fmt.Sprint(i))) },
			func(i int) bool { _, ok := answers.Get(key(i)); return ok },
			answers.Len},
		{"compiled forms",
			func(i int) { forms.Put(formKey(i), fmt.Sprint("form", i)) },
			func(i int) bool { _, ok := forms.Get(formKey(i)); return ok },
			forms.Len},
	} {
		in.put(1)
		in.put(2)
		in.get(1) // promote 1; 2 is now LRU
		in.put(3)
		if in.get(2) {
			t.Errorf("%s: LRU entry survived eviction", in.name)
		}
		if !in.get(1) {
			t.Errorf("%s: promoted entry evicted", in.name)
		}
		if n := in.len(); n != 2 {
			t.Errorf("%s: len = %d", in.name, n)
		}
	}
}

func TestCacheInvalidateByCone(t *testing.T) {
	c := New(8)
	put(c, key(1), entry("anc", "parent"))
	put(c, key(2), entry("sg", "sib"))
	if n := c.Invalidate("unrelated"); n != 0 {
		t.Fatalf("invalidated %d entries for unrelated pred", n)
	}
	if n := c.Invalidate("parent"); n != 1 {
		t.Fatalf("invalidated %d entries; want 1", n)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("entry with touched cone survived")
	}
	if _, ok := c.Get(key(2)); !ok {
		t.Error("entry with untouched cone evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := New(0)
	put(c, key(1), entry("a"))
	if _, ok := c.Get(key(1)); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestConstsKey(t *testing.T) {
	a := ConstsKey([]term.Term{term.Atom("x"), term.Int(3)})
	b := ConstsKey([]term.Term{term.Atom("x"), term.Int(3)})
	if a != b {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
	if a == ConstsKey([]term.Term{term.Atom("x"), term.Int(4)}) {
		t.Error("distinct constants collide")
	}
	if ConstsKey(nil) != "" {
		t.Error("empty consts should key to empty string")
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Concurrent Get/PutAt/Invalidate must be race-free (run under -race).
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 20)
				switch g % 3 {
				case 0:
					put(c, k, entry(k.Pred, "base"))
				case 1:
					c.Get(k)
				default:
					c.Invalidate("base")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGenerationFence pins the lock-free-reader fill protocol: a reader
// records Gen() before loading its snapshot and fills with PutAt; any
// Invalidate or Purge in between bumps the generation and the stale fill
// is dropped instead of being served as current.
func TestGenerationFence(t *testing.T) {
	c := New(4)
	gen := c.Gen()
	c.PutAt(key(1), entry("a"), gen)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("same-generation fill dropped")
	}

	// Invalidation bumps the generation even when nothing matches the cone.
	gen = c.Gen()
	c.Invalidate("unrelated")
	c.PutAt(key(2), entry("b"), gen)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("fill from a superseded generation was published")
	}

	// Purge bumps it too.
	gen = c.Gen()
	c.Purge()
	c.PutAt(key(3), entry("c"), gen)
	if _, ok := c.Get(key(3)); ok {
		t.Fatal("fill recorded before Purge was published")
	}

	// And the fence resets: a fresh generation fills normally again.
	c.PutAt(key(3), entry("c"), c.Gen())
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("post-bump fill with fresh generation dropped")
	}
}
