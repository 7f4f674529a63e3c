package ldl1

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// prepProg has a recursive predicate (cone {anc, par}) and an unrelated
// one (cone {unrelated, other}) so invalidation tests can distinguish
// in-cone from out-of-cone updates.
const prepProg = `
	anc(X, Y) <- par(X, Y).
	anc(X, Y) <- par(X, Z), anc(Z, Y).
	unrelated(X) <- other(X).
	par(a, b). par(b, c). par(c, d). par(b, e).
	other(u1).
`

func mustStr(t *testing.T) func(*Answers, error) string {
	return func(a *Answers, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a.String()
	}
}

// TestPreparedExecOracle pins the core equivalence: for every constant and
// worker count, Prepare+Exec on a magic engine, a fresh magic Query, and a
// full bottom-up Query all return the same answers — including repeated
// Execs that hit the answer cache.
func TestPreparedExecOracle(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			eng, err := New(prepProg, WithMagic(true), WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			pq, err := eng.Prepare("anc(a, W)")
			if err != nil {
				t.Fatal(err)
			}
			if pq.NumArgs() != 1 {
				t.Fatalf("NumArgs = %d, want 1", pq.NumArgs())
			}
			for _, c := range []string{"a", "b", "c", "d", "nobody"} {
				got := mustStr(t)(pq.Exec(Sym(c)))
				again := mustStr(t)(pq.Exec(Sym(c))) // cache hit path
				fresh, err := New(prepProg, WithMagic(true), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				magic := mustStr(t)(fresh.Query(fmt.Sprintf("anc(%s, W)", c)))
				plain, err := New(prepProg, WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				full := mustStr(t)(plain.Query(fmt.Sprintf("anc(%s, W)", c)))
				if got != magic || got != full || got != again {
					t.Errorf("anc(%s, W): exec=%q reexec=%q magic=%q full=%q", c, got, again, magic, full)
				}
			}
		})
	}
}

// TestPreparedNoArgsRerunsOriginal checks that Exec() re-runs the constants
// baked into the prepared query text.
func TestPreparedNoArgsRerunsOriginal(t *testing.T) {
	eng, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(b, W)")
	if err != nil {
		t.Fatal(err)
	}
	got := mustStr(t)(pq.Exec())
	want := mustStr(t)(eng.Query("anc(b, W)"))
	if got != want {
		t.Errorf("Exec() = %q, Query = %q", got, want)
	}
}

// TestPreparedExecArgErrors covers the Exec argument contract: wrong arity
// and non-ground arguments fail without evaluating.
func TestPreparedExecArgErrors(t *testing.T) {
	eng, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(Sym("a"), Sym("b")); err == nil {
		t.Error("Exec with too many args succeeded")
	}
	if _, err := pq.Exec(Variable("Z")); err == nil {
		t.Error("Exec with a non-ground arg succeeded")
	}
}

// TestPreparedCacheInvalidation pins the cache lifecycle against stats:
// repeat queries hit, an update inside the dependency cone evicts, an
// update outside the cone does not.
func TestPreparedCacheInvalidation(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(); err != nil { // miss: fills the cache
		t.Fatal(err)
	}
	if _, err := pq.Exec(); err != nil { // hit
		t.Fatal(err)
	}
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits after repeat = %d, want 1", st.CacheHits)
	}

	// In-cone update: par is in anc's cone, so the entry is evicted and
	// the next Exec recomputes — and sees the new fact.
	eng.AddFact(NewFact("par", Sym("d"), Sym("z")))
	got := mustStr(t)(pq.Exec())
	if st.CacheHits != 1 {
		t.Errorf("CacheHits after in-cone update = %d, want 1 (miss expected)", st.CacheHits)
	}
	fresh, err := New(prepProg+"par(d, z).", WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	if want := mustStr(t)(fresh.Query("anc(a, W)")); got != want {
		t.Errorf("post-update answers = %q, want %q", got, want)
	}

	// Out-of-cone update: other feeds only unrelated, so the refilled
	// entry survives and the next Exec hits.
	eng.AddFact(NewFact("other", Sym("u2")))
	if _, err := pq.Exec(); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 2 {
		t.Errorf("CacheHits after out-of-cone update = %d, want 2 (hit expected)", st.CacheHits)
	}
}

// TestViewAssertKeepsEngineCache checks that view transactions leave the
// engine's answer cache alone: the view writes its own clone of the EDB,
// so an Assert inside a cached query's cone cannot change the engine's
// answers.  The engine's entry survives, and the answer it serves still
// equals a fresh engine's over the same facts; the view itself sees the
// new fact.
func TestViewAssertKeepsEngineCache(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	before := mustStr(t)(eng.Query("anc(a, W)"))
	mat, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.Assert("par(d, z)."); err != nil {
		t.Fatal(err)
	}
	got := mustStr(t)(eng.Query("anc(a, W)"))
	if st.CacheHits != 1 {
		t.Errorf("CacheHits after view Assert = %d, want 1 (the engine's entry should survive)", st.CacheHits)
	}
	fresh, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	if want := mustStr(t)(fresh.Query("anc(a, W)")); got != want || got != before {
		t.Errorf("engine answer after view Assert = %q, want %q", got, want)
	}
	if ok, _ := mat.Model().Contains("anc(a, z)"); !ok {
		t.Error("the view does not see its own Assert")
	}
}

// TestQueryCacheSharedWithPlainQuery checks that plain Query and a prepared
// handle share the cache: the prepared Exec seeds it, the equivalent Query
// hits it.
func TestQueryCacheSharedWithPlainQuery(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(b, W)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(); err != nil { // seeds the cache
		t.Fatal(err)
	}
	// Different variable name, same shape and constants: must hit and
	// remap to the caller's variable.
	ans, err := eng.Query("anc(b, Out)")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}
	if len(ans.Vars) != 1 || ans.Vars[0] != "Out" {
		t.Errorf("Vars = %v, want [Out]", ans.Vars)
	}
	// Row values must match the prepared answers (names differ).
	var rows, prows []string
	for _, r := range ans.Rows {
		rows = append(rows, r[0].String())
	}
	pans, err := pq.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pans.Rows {
		prows = append(prows, r[0].String())
	}
	if fmt.Sprint(rows) != fmt.Sprint(prows) {
		t.Errorf("remapped rows %v != prepared rows %v", rows, prows)
	}
}

// TestRepeatedVariableQueryNotConfusedByCache: anc(X, X) and anc(X, Y)
// share the adornment "ff" but mean different things; the repeated-variable
// form must bypass the shared cache and stay correct in both orders.
func TestRepeatedVariableQueryNotConfusedByCache(t *testing.T) {
	src := prepProg + "par(loop, loop).\n"
	for _, order := range []string{"distinct-first", "repeated-first"} {
		eng, err := New(src, WithMagic(true))
		if err != nil {
			t.Fatal(err)
		}
		queries := []string{"anc(X, Y)", "anc(X, X)"}
		if order == "repeated-first" {
			queries[0], queries[1] = queries[1], queries[0]
		}
		var byQuery = map[string]string{}
		for _, q := range queries {
			byQuery[q] = mustStr(t)(eng.Query(q))
		}
		plain, err := New(src)
		if err != nil {
			t.Fatal(err)
		}
		for q, got := range byQuery {
			if want := mustStr(t)(plain.Query(q)); got != want {
				t.Errorf("%s (%s): magic=%q full=%q", q, order, got, want)
			}
		}
	}
}

// TestWithoutQueryCache pins the opt-out: no hits ever accrue.
func TestWithoutQueryCache(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st), WithoutQueryCache())
	if err != nil {
		t.Fatal(err)
	}
	want := mustStr(t)(eng.Query("anc(a, W)"))
	got := mustStr(t)(eng.Query("anc(a, W)"))
	if got != want {
		t.Errorf("answers differ across repeats: %q vs %q", got, want)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d with the cache disabled", st.CacheHits)
	}
}

// TestPreparedOptionParity: a prepared handle honors WithDeadline,
// WithLimit, and WithMemBudget exactly like QueryCtx — same taxonomy error
// on breach, success under a generous bound.
func TestPreparedOptionParity(t *testing.T) {
	divergent := `
		nat(z).
		nat(s(X)) <- nat(X).
		top(X) <- nat(X).
	`
	t.Run("deadline", func(t *testing.T) {
		eng, err := New(divergent, WithMagic(true), WithDeadline(20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("top(W)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pq.Exec(); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("Exec: want ErrDeadlineExceeded, got %v", err)
		}
		if _, err := eng.QueryCtx(context.Background(), "top(W)"); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("QueryCtx: want ErrDeadlineExceeded, got %v", err)
		}
	})
	t.Run("limit", func(t *testing.T) {
		eng, err := New(divergent, WithMagic(true), WithLimit(50))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("top(W)")
		if err != nil {
			t.Fatal(err)
		}
		var le *LimitError
		if _, err := pq.Exec(); !errors.As(err, &le) {
			t.Errorf("Exec: want *LimitError, got %v", err)
		}
		if _, err := eng.Query("top(W)"); !errors.As(err, &le) {
			t.Errorf("Query: want *LimitError, got %v", err)
		}
	})
	t.Run("membudget", func(t *testing.T) {
		eng, err := New(divergent, WithMagic(true), WithMemBudget(1<<12))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("top(W)")
		if err != nil {
			t.Fatal(err)
		}
		var me *MemBudgetError
		if _, err := pq.Exec(); !errors.As(err, &me) {
			t.Errorf("Exec: want *MemBudgetError, got %v", err)
		}
		if _, err := eng.Query("top(W)"); !errors.As(err, &me) {
			t.Errorf("Query: want *MemBudgetError, got %v", err)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		eng, err := New(prepProg, WithMagic(true))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("anc(a, W)")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := pq.ExecCtx(ctx); !errors.Is(err, ErrCanceled) {
			t.Errorf("ExecCtx: want ErrCanceled, got %v", err)
		}
		// A failed evaluation must not be cached: the next Exec succeeds
		// with real answers.
		got := mustStr(t)(pq.Exec())
		want := mustStr(t)(eng.Query("anc(a, W)"))
		if got != want {
			t.Errorf("answers after canceled Exec = %q, want %q", got, want)
		}
	})
}

// TestPreparedNonMagicEngine: Prepare works without WithMagic, answering
// from the memoized model with per-call constants.
func TestPreparedNonMagicEngine(t *testing.T) {
	eng, err := New(prepProg)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a", "b", "c"} {
		got := mustStr(t)(pq.Exec(Sym(c)))
		want := mustStr(t)(eng.Query(fmt.Sprintf("anc(%s, W)", c)))
		if got != want {
			t.Errorf("anc(%s, W): exec=%q query=%q", c, got, want)
		}
	}
}

// TestConcurrentExecAddFact exercises the cache under concurrent prepared
// executions and EDB updates; run under -race.  Every Exec must return
// answers consistent with some EDB state (in particular, never an error),
// and the final repeat must see all inserted facts.
func TestConcurrentExecAddFact(t *testing.T) {
	eng, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g == 0 {
					eng.AddFact(NewFact("par", Sym("d"), Sym(fmt.Sprintf("n%d", i))))
					continue
				}
				if _, err := pq.Exec(); err != nil {
					t.Errorf("concurrent Exec: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := mustStr(t)(pq.Exec())
	fresh, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		fresh.AddFact(NewFact("par", Sym("d"), Sym(fmt.Sprintf("n%d", i))))
	}
	if want := mustStr(t)(fresh.Query("anc(a, W)")); got != want {
		t.Errorf("final answers diverge:\n got %q\nwant %q", got, want)
	}
}

// TestEngineCostOrderingFullScans is the engine-level regression for the
// cost-based planner: a source order that forces a near-cartesian pass is
// repaired, with identical answers and strictly fewer full scans than the
// pinned static order.
func TestEngineCostOrderingFullScans(t *testing.T) {
	src := "h(A, B, P) <- big(P, X), small(A, B).\n"
	for i := 0; i < 200; i++ {
		src += fmt.Sprintf("big(p%d, x%d).\n", i, i)
	}
	for i := 0; i < 3; i++ {
		src += fmt.Sprintf("small(a%d, b%d).\n", i, i)
	}
	var scost, sstatic Stats
	cost, err := New(src, WithStats(&scost))
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(src, WithStats(&sstatic), WithoutReorder())
	if err != nil {
		t.Fatal(err)
	}
	a, err := cost.Query("h(A, B, P)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := static.Query("h(A, B, P)")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("cost ordering changed the answers")
	}
	if a.Len() != 600 {
		t.Fatalf("answers = %d, want 600", a.Len())
	}
	if scost.PlansReordered == 0 {
		t.Error("cost engine reordered nothing")
	}
	if sstatic.PlansReordered != 0 {
		t.Errorf("WithoutReorder engine reordered %d plans", sstatic.PlansReordered)
	}
	if scost.FullScans >= sstatic.FullScans {
		t.Errorf("full scans: cost=%d static=%d", scost.FullScans, sstatic.FullScans)
	}
}
