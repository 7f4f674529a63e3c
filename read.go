package ldl1

import (
	"context"
	"fmt"
	"time"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/lderr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// answerCacheCap bounds each answer cache.  Entries hold answer rows, so
// the cap trades memory against repeated-query latency.
const answerCacheCap = 128

// ReadOpts bounds one read, from an engine's or a materialized view's
// prepared handle (PreparedQuery.ExecOpts) or from Materialized.QueryOpts.
// The zero value applies only the engine-level WithDeadline, if any.
// These are the per-request knobs the ldl1d server maps from its request
// bodies; library callers can use them directly.
type ReadOpts struct {
	// Deadline, when positive, replaces the engine's WithDeadline for this
	// read only.  It composes with the caller's context — whichever
	// expires first aborts the enumeration with lderr.DeadlineExceeded.
	Deadline time.Duration
	// MaxRows, when positive, aborts the read with *lderr.LimitError once
	// more than that many distinct answer rows exist.  It is enforced on
	// cache hits too, so a bounded request behaves identically whether or
	// not an earlier request already computed the full answer set.
	MaxRows int
	// MemBudget, when positive, aborts the read with *lderr.MemBudgetError
	// once the retained solution bindings (for an engine's magic-sets
	// evaluation, the derived facts) exceed approximately that many bytes.
	// Like WithMemBudget it bounds evaluation work, so an answer served
	// from the cache (no evaluation) does not re-pay it.
	MemBudget int64
}

func (o ReadOpts) limits() eval.SolveLimits {
	return eval.SolveLimits{MaxSolutions: o.MaxRows, MemBudget: o.MemBudget}
}

// reader is the state the read path keeps per answer source; Engine and
// Materialized each embed one.
type reader struct {
	// cache holds the answers of canonical single-literal reads as
	// positional rows; nil under WithoutQueryCache.
	cache *qcache.Cache
	// deps is the head → body predicate adjacency of the compiled program,
	// for dependency-cone computation at cache-fill time.
	deps map[string][]string
	// deadline is the engine's WithDeadline, the default for every read.
	deadline time.Duration
	// stats counts the engine's cache hits; nil for a view, whose reads
	// never write the eval-stats sink.
	stats *Stats
}

// source is an answer source of the read path: an Engine or a
// Materialized view.
type source interface {
	readState() *reader
	// solve runs the source's own evaluation step for query under o.  The
	// solutions are keyed by the variables of solved: query itself or, for
	// a compiled magic form shared by every spelling of the same binding
	// pattern, the form's own query.  pr, when non-nil, is the form a
	// prepared handle compiled.
	solve(ctx context.Context, query parser.Query, pr *magic.Prepared, o ReadOpts) (sols []map[term.Var]term.Term, solved parser.Query, err error)
}

func (r *reader) readState() *reader { return r }

// read answers query from src.  A canonical single literal (see
// canonicalLit) goes through the answer cache, keyed by predicate,
// adornment and constants: a hit returns the entry's rows under the
// caller's variable names; a miss records the cache generation, runs src's
// evaluation step, and fills with PutAt, so a fill raced by an update is
// dropped instead of published.  Every other shape is evaluated uncached.
func read(ctx context.Context, src source, query parser.Query, pr *magic.Prepared, o ReadOpts) (*Answers, error) {
	r := src.readState()
	if r.cache == nil || len(query.Body) != 1 || !canonicalLit(query.Body[0]) {
		sols, _, err := src.solve(ctx, query, pr, o)
		if err != nil {
			return nil, err
		}
		return bounded(newAnswers(query, sols), o)
	}
	lit, consts, err := groundArgs(query.Body[0])
	if err != nil {
		return nil, err
	}
	key := qcache.Key{Pred: lit.Pred, Adorn: string(magic.AdornQuery(lit)), Consts: qcache.ConstsKey(consts)}
	vars := varNames(queryVars(query))
	if ent, ok := r.cache.Get(key); ok {
		if r.stats != nil {
			r.stats.CacheHits++
		}
		return bounded(&Answers{Vars: vars, Rows: ent.Rows}, o)
	}
	gen := r.cache.Gen()
	sols, solved, err := src.solve(ctx, parser.Query{Body: []ast.Literal{lit}}, pr, o)
	if err != nil {
		// Never cache a failed read: a deadline, limit, or budget breach
		// must not poison later calls with partial answers.
		return nil, err
	}
	rows := sortedRows(queryVars(solved), sols)
	r.cache.PutAt(key, &qcache.Entry{Rows: rows, Cone: r.cone(lit.Pred)}, gen)
	return bounded(&Answers{Vars: vars, Rows: rows}, o)
}

// bounded enforces o.MaxRows on a finished answer set.
func bounded(a *Answers, o ReadOpts) (*Answers, error) {
	if o.MaxRows > 0 && len(a.Rows) > o.MaxRows {
		return nil, &lderr.LimitError{Limit: o.MaxRows}
	}
	return a, nil
}

// withDeadline layers d, or the source's default deadline when d is not
// positive, onto ctx.  The returned cancel func must always be called.
func (r *reader) withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		d = r.deadline
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// cone returns the dependency cone of pred: every predicate (EDB and IDB)
// reachable from it through the compiled program's rules.  An update to any
// predicate in the cone may change the query's answers.
func (r *reader) cone(pred string) map[string]bool {
	out := map[string]bool{pred: true}
	stack := []string{pred}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range r.deps[p] {
			if !out[q] {
				out[q] = true
				stack = append(stack, q)
			}
		}
	}
	return out
}

// canonicalLit reports whether a query literal is cache-shaped: positive,
// every argument either ground or a variable, and no variable repeated.
// Only then do (predicate, adornment, constants) fully determine the
// answers, so only such queries share prepared forms and cache entries;
// anything else (repeated variables add equality constraints, compound
// patterns add structure) takes the uncached path.
func canonicalLit(l ast.Literal) bool {
	if l.Negated {
		return false
	}
	seen := map[term.Var]bool{}
	for _, a := range l.Args {
		if v, ok := a.(term.Var); ok {
			if seen[v] {
				return false
			}
			seen[v] = true
			continue
		}
		if !term.IsGround(a) {
			return false
		}
	}
	return true
}

// groundArgs normalizes the literal's ground arguments, returning the
// normalized literal and those arguments in position order — the
// constants a magic form binds for the literal's adornment.
func groundArgs(l ast.Literal) (ast.Literal, []term.Term, error) {
	out := ast.Literal{Negated: l.Negated, Pred: l.Pred, Args: make([]term.Term, len(l.Args))}
	var consts []term.Term
	for i, a := range l.Args {
		out.Args[i] = a
		if !term.IsGround(a) {
			continue
		}
		v, err := unify.Apply(a, unify.NewBindings())
		if err != nil {
			return ast.Literal{}, nil, fmt.Errorf("ldl1: query argument %s: %w", a, err)
		}
		out.Args[i] = v
		consts = append(consts, v)
	}
	return out, consts, nil
}

// normalizeConsts evaluates prepared-call arguments to ground terms.
func normalizeConsts(args []Term) ([]term.Term, error) {
	out := make([]term.Term, len(args))
	for i, a := range args {
		v, err := unify.Apply(a, unify.NewBindings())
		if err != nil {
			return nil, fmt.Errorf("ldl1: prepared argument %s: %w", a, err)
		}
		if !term.IsGround(v) {
			return nil, fmt.Errorf("ldl1: prepared argument %s is not ground", a)
		}
		out[i] = v
	}
	return out, nil
}
