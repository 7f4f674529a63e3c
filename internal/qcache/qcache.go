// Package qcache implements the engine's answer cache: a bounded LRU from
// (predicate, adornment, constants) to the sorted answer rows of one
// evaluation, plus the dependency cone that determines when a database
// update invalidates the entry.  The LRU underneath is generic over its
// value, so the engine keeps its compiled magic forms in one as well.
//
// Entries are immutable once stored — callers must never mutate a returned
// entry's rows — so readers need no copy and the lock is held only for
// map/list surgery, never during evaluation.  Invalidation takes the same
// lock, which makes the cache's view atomic: a Get racing an Invalidate
// observes either the entry or its absence, never a half-evicted state
// (the snapshot-publication discipline of internal/incr, applied to a
// cache).
package qcache

import (
	"container/list"
	"sync"

	"ldl1/internal/term"
)

// Key identifies one cached query form: the queried predicate, its
// adornment (binding pattern), and the bound constants rendered in a
// canonical form (term.Fact keys are canonical per the interning layer).
// A compiled form depends only on the first two, so its key leaves Consts
// empty.
type Key struct {
	Pred   string
	Adorn  string
	Consts string
}

// ConstsKey renders ground constants canonically for use in a Key.
func ConstsKey(consts []term.Term) string {
	if len(consts) == 0 {
		return ""
	}
	return term.NewFact("", consts...).Key()
}

// LRU is a thread-safe map from Key to V holding at most cap values; the
// least recently used value is dropped beyond that (cap <= 0 disables it:
// every Get misses and Put is a no-op).
type LRU[V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	m         map[Key]*list.Element
	evictions int
}

type cell[V any] struct {
	k Key
	v V
}

// NewLRU returns an empty LRU holding at most cap values.
func NewLRU[V any](cap int) *LRU[V] {
	return &LRU[V]{cap: cap, ll: list.New(), m: map[Key]*list.Element{}}
}

// Get returns the value for k, promoting it to most-recently-used.
func (l *LRU[V]) Get(k Key) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.get(k)
}

// Put stores v under k, evicting the least-recently-used value beyond
// capacity.
func (l *LRU[V]) Put(k Key, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.put(k, v)
}

// Len reports the number of live values.
func (l *LRU[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

func (l *LRU[V]) get(k Key) (V, bool) {
	el, ok := l.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*cell[V]).v, true
}

func (l *LRU[V]) put(k Key, v V) {
	if l.cap <= 0 {
		return
	}
	if el, ok := l.m[k]; ok {
		el.Value.(*cell[V]).v = v
		l.ll.MoveToFront(el)
		return
	}
	l.m[k] = l.ll.PushFront(&cell[V]{k: k, v: v})
	for l.ll.Len() > l.cap {
		l.remove(l.ll.Back())
	}
}

func (l *LRU[V]) remove(el *list.Element) {
	l.ll.Remove(el)
	delete(l.m, el.Value.(*cell[V]).k)
	l.evictions++
}

// Entry is one cached answer set.  Rows and Cone are frozen at fill time;
// the cache hands out the same slice to every hit.
type Entry struct {
	// Rows are the answers, one term per free argument position in
	// positional order, sorted once when the entry is filled.  For a
	// canonical literal (every argument ground or a distinct variable)
	// positional order is first-occurrence variable order, so every
	// spelling of the query reads the same rows.
	Rows [][]term.Term
	// Cone holds every predicate (EDB and IDB) the query depends on; an
	// update touching any of them evicts the entry.
	Cone map[string]bool
}

// Cache is a thread-safe LRU of query answers with a generation fence.
type Cache struct {
	lru          *LRU[*Entry] // lru.mu guards every field below too
	hits, misses int
	// gen counts invalidations.  Readers record Gen() before loading the
	// state they evaluate against and fill with PutAt: a fill raced by any
	// intervening invalidation is dropped, so an answer computed against a
	// superseded database can never be published as current.
	gen int64
}

// New returns a cache holding at most cap entries (cap <= 0 disables
// caching: every Get misses and PutAt is a no-op).
func New(cap int) *Cache {
	return &Cache{lru: NewLRU[*Entry](cap)}
}

// Get returns the entry for k, promoting it to most-recently-used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	e, ok := c.lru.get(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Gen returns the current invalidation generation.  Readers must call Gen
// before loading the state they evaluate, and pass the value to PutAt.
func (c *Cache) Gen() int64 {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	return c.gen
}

// PutAt stores e under k, evicting the least-recently-used entry beyond
// capacity — but only if no Invalidate or Purge ran since the caller
// observed gen with Gen().  A dropped fill is safe: the next Get simply
// misses.  The entry must not be mutated after the call.
func (c *Cache) PutAt(k Key, e *Entry, gen int64) {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	if gen == c.gen {
		c.lru.put(k, e)
	}
}

// Invalidate evicts every entry whose dependency cone contains any of the
// given predicates, returning the number evicted.  Every call advances the
// generation, even when nothing matches: a concurrent fill cannot tell
// whether its database state predates the update, so it must be dropped
// regardless.
func (c *Cache) Invalidate(preds ...string) int {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	c.gen++
	n := 0
	for el := c.lru.ll.Front(); el != nil; {
		next := el.Next()
		for _, p := range preds {
			if el.Value.(*cell[*Entry]).v.Cone[p] {
				c.lru.remove(el)
				n++
				break
			}
		}
		el = next
	}
	return n
}

// Purge empties the cache and advances the generation.
func (c *Cache) Purge() {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	c.gen++
	c.lru.evictions += c.lru.ll.Len()
	c.lru.ll.Init()
	c.lru.m = map[Key]*list.Element{}
}

// Len reports the number of live entries.
func (c *Cache) Len() int { return c.lru.Len() }

// Counters reports cumulative hits, misses, and evictions.
func (c *Cache) Counters() (hits, misses, evictions int) {
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	return c.hits, c.misses, c.lru.evictions
}
