package ldl1

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestCacheHitSharesRows pins the one answer representation on both
// answer sources: an engine WithMagic and its materialized view.  Two
// spellings of one canonical query read the same cached rows, differing
// only in Vars, and a cache hit costs the same handful of allocations
// whether the answer has one row or a thousand.
func TestCacheHitSharesRows(t *testing.T) {
	var src strings.Builder
	src.WriteString("anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).\n")
	for i := 0; i < 999; i++ {
		fmt.Fprintf(&src, "par(r, c%d).\n", i)
	}
	src.WriteString("par(c0, leaf).\n")
	eng, err := New(src.String(), WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name  string
		query func(string) (*Answers, error)
	}{{"engine", eng.Query}, {"view", mv.Query}} {
		t.Run(s.name, func(t *testing.T) {
			w, err := s.query("anc(r, W)")
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.query("anc(r, Out)")
			if err != nil {
				t.Fatal(err)
			}
			if w.Len() != 1000 || out.Len() != 1000 {
				t.Fatalf("answers = %d and %d, want 1000", w.Len(), out.Len())
			}
			if &w.Rows[0] != &out.Rows[0] {
				t.Error("anc(r, W) and anc(r, Out) do not share their rows")
			}
			if fmt.Sprint(w.Vars, out.Vars) != "[W] [Out]" {
				t.Errorf("Vars = %v and %v, want [W] and [Out]", w.Vars, out.Vars)
			}

			hitAllocs := func(q string) float64 {
				if _, err := s.query(q); err != nil { // fill
					t.Fatal(err)
				}
				return testing.AllocsPerRun(50, func() {
					if _, err := s.query(q); err != nil {
						t.Fatal(err)
					}
				})
			}
			many, one := hitAllocs("anc(r, W)"), hitAllocs("anc(c0, W)")
			t.Logf("cache hit allocs: %v for 1000 rows, %v for 1 row", many, one)
			if many > one+2 {
				t.Errorf("cache hit allocs: %v for 1000 rows, %v for 1 row", many, one)
			}
		})
	}
}

// TestEngineExecOpts pins ReadOpts on an engine's prepared handle: each
// bound replaces its engine-wide counterpart for one read, and MaxRows
// holds on the magic evaluation and on the cache hit alike.
func TestEngineExecOpts(t *testing.T) {
	ctx := context.Background()
	eng, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	var le *LimitError
	if _, err := pq.ExecOpts(ctx, ReadOpts{MaxRows: 1}); !errors.As(err, &le) || le.Limit != 1 {
		t.Errorf("MaxRows=1 on a miss: err = %v, want *LimitError{1}", err)
	}
	if _, err := pq.Exec(); err != nil {
		t.Fatal(err)
	}
	if _, err := pq.ExecOpts(ctx, ReadOpts{MaxRows: 1}); !errors.As(err, &le) {
		t.Errorf("MaxRows=1 on a hit: err = %v, want *LimitError", err)
	}
	if a, err := pq.ExecOpts(ctx, ReadOpts{MaxRows: 10}); err != nil || a.Len() != 4 {
		t.Errorf("MaxRows=10: %v, %v", a, err)
	}

	divergent, err := New("nat(z).\nnat(s(X)) <- nat(X).\ntop(X) <- nat(X).\n", WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	top, err := divergent.Prepare("top(W)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.ExecOpts(ctx, ReadOpts{Deadline: 20 * time.Millisecond}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("Deadline: err = %v, want ErrDeadlineExceeded", err)
	}
	var me *MemBudgetError
	if _, err := top.ExecOpts(ctx, ReadOpts{MemBudget: 1 << 12}); !errors.As(err, &me) {
		t.Errorf("MemBudget: err = %v, want *MemBudgetError", err)
	}
}
