package ldl1

import (
	"context"
	"fmt"

	"ldl1/internal/eval"
	"ldl1/internal/incr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/term"
)

// UpdateResult summarises the net model change of one update transaction:
// facts added to and removed from the model, EDB and derived together.
type UpdateResult = incr.Result

// Materialized is an incrementally maintained materialization of an
// engine's program: Assert and Retract apply EDB update transactions and
// produce the next consistent model by delta propagation (semi-naive
// insertion rules, delete-and-rederive for retractions, ≡-class regrouping
// for grouping heads) instead of a from-scratch fixpoint.  Model returns an
// immutable snapshot; updates serialize internally, and snapshots taken
// before an update remain valid and unchanged, so concurrent readers never
// observe a half-applied transaction.
type Materialized struct {
	inner *incr.Materialized
	// reader's answer cache is the view's own, shared by every prepared
	// handle and QueryCtx caller of this view: its entries depend on the
	// view's EDB, which incr.New cloned from the engine's.
	reader
}

// Materialize evaluates the engine's program once against its current
// extensional database and returns the incrementally maintained view.
// Subsequent AddFact calls on the engine do not affect the view; use
// Assert/Retract on the view instead.  The engine's WithLimit bound
// carries over: it caps the facts any single update transaction may
// derive, and a breaching transaction rolls back.  WithDeadline carries
// over likewise, per operation.
func (e *Engine) Materialize() (*Materialized, error) {
	e.mu.RLock()
	inner, err := incr.New(e.source, e.edb, incr.Options{
		Workers:    e.cfg.workers,
		Strategy:   e.cfg.strategy,
		Stats:      e.cfg.stats,
		MaxDerived: e.cfg.limit,
	})
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	mv := &Materialized{inner: inner, reader: reader{deps: e.deps, deadline: e.cfg.deadline}}
	if !e.cfg.noQueryCache {
		// Delta-driven cache invalidation: a transaction touching any
		// predicate inside a cached query's dependency cone evicts that
		// entry.  The hook runs after the view publishes its new snapshot
		// and before its next transaction, so eviction is never lost under
		// concurrent Exec/Assert.  The engine's own cache is untouched:
		// the view writes its cloned EDB, never the engine's.
		mv.cache = qcache.New(answerCacheCap)
		inner.OnChange(func(preds []string) { mv.cache.Invalidate(preds...) })
	}
	return mv, nil
}

// parseFactList parses LDL1 source text consisting of facts only.
func parseFactList(src string) ([]*term.Fact, error) {
	p, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	out := make([]*term.Fact, 0, len(p.Rules))
	for _, r := range p.Rules {
		if !r.IsFact() {
			return nil, fmt.Errorf("ldl1: update source contains a rule: %s", r.String())
		}
		out = append(out, term.NewFact(r.Head.Pred, r.Head.Args...))
	}
	return out, nil
}

// Assert inserts extensional facts given as source text ("par(a, b). ...")
// as one transaction and incrementally updates the model.
func (mv *Materialized) Assert(src string) (UpdateResult, error) {
	return mv.AssertCtx(context.Background(), src)
}

// AssertCtx is Assert under a context.  A canceled context or expired
// deadline rolls the transaction back completely: neither the view's EDB
// nor any model snapshot changes, and the returned error satisfies
// errors.Is against lderr.Canceled or lderr.DeadlineExceeded.
func (mv *Materialized) AssertCtx(ctx context.Context, src string) (UpdateResult, error) {
	fs, err := parseFactList(src)
	if err != nil {
		return UpdateResult{}, err
	}
	ctx, cancel := mv.withDeadline(ctx, 0)
	defer cancel()
	return mv.inner.ApplyCtx(ctx, incr.Tx{Insert: fs})
}

// Retract removes extensional facts given as source text as one
// transaction and incrementally updates the model.  Retracting an absent
// fact is a no-op.
func (mv *Materialized) Retract(src string) (UpdateResult, error) {
	return mv.RetractCtx(context.Background(), src)
}

// RetractCtx is Retract under a context, with AssertCtx's rollback
// guarantee.
func (mv *Materialized) RetractCtx(ctx context.Context, src string) (UpdateResult, error) {
	fs, err := parseFactList(src)
	if err != nil {
		return UpdateResult{}, err
	}
	ctx, cancel := mv.withDeadline(ctx, 0)
	defer cancel()
	return mv.inner.ApplyCtx(ctx, incr.Tx{Retract: fs})
}

// Update applies insertions and retractions, both given as fact-list
// source text, as ONE transaction: the model moves atomically from the
// state before the call to the state with both applied, and concurrent
// readers never observe the insertions without the retractions or vice
// versa.  Either argument may be empty.
func (mv *Materialized) Update(assertSrc, retractSrc string) (UpdateResult, error) {
	return mv.UpdateCtx(context.Background(), assertSrc, retractSrc)
}

// UpdateCtx is Update under a context, with AssertCtx's rollback
// guarantee.
func (mv *Materialized) UpdateCtx(ctx context.Context, assertSrc, retractSrc string) (UpdateResult, error) {
	ins, err := parseFactList(assertSrc)
	if err != nil {
		return UpdateResult{}, err
	}
	del, err := parseFactList(retractSrc)
	if err != nil {
		return UpdateResult{}, err
	}
	ctx, cancel := mv.withDeadline(ctx, 0)
	defer cancel()
	return mv.inner.ApplyCtx(ctx, incr.Tx{Insert: ins, Retract: del})
}

// Model returns the current model as an immutable snapshot.
func (mv *Materialized) Model() *Model {
	return &Model{db: mv.inner.Snapshot()}
}

// Query answers a conjunctive query against the current model snapshot.
func (mv *Materialized) Query(q string) (*Answers, error) {
	return mv.QueryCtx(context.Background(), q)
}

// QueryCtx is Query under a context; enumeration stops at the next
// solution once the context is done.  Canonical single-literal queries are
// served from (and fill) the view's answer cache; see QueryOpts for
// per-call resource bounds.
func (mv *Materialized) QueryCtx(ctx context.Context, q string) (*Answers, error) {
	return mv.QueryOpts(ctx, q, ReadOpts{})
}

// QueryOpts answers a conjunctive query against the current model snapshot
// under per-call resource bounds.  The read is lock-free: it loads the
// current published snapshot and never blocks or is blocked by concurrent
// Assert/Retract/Update transactions (which publish their own snapshots
// atomically).
func (mv *Materialized) QueryOpts(ctx context.Context, q string, o ReadOpts) (*Answers, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return read(ctx, mv, query, nil, o)
}

// Prepare compiles a query for repeated execution against the view: the
// parse and parameter analysis happen once, and each Exec sees the
// snapshot current at its start.  As with Engine.Prepare, the ground
// argument positions of a single-literal query become the parameters;
// multi-literal queries prepare with zero parameters.
func (mv *Materialized) Prepare(q string) (*PreparedQuery, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return newPrepared(mv, query), nil
}

// CacheCounters reports the view's answer-cache statistics: cumulative
// hits, misses, and evictions, plus the live entry count.  All zero when
// the engine was built with WithoutQueryCache.
func (mv *Materialized) CacheCounters() (hits, misses, evictions, entries int) {
	if mv.cache == nil {
		return 0, 0, 0, 0
	}
	hits, misses, evictions = mv.cache.Counters()
	return hits, misses, evictions, mv.cache.Len()
}

// solve is the view's evaluation step: a filter over the current snapshot.
func (mv *Materialized) solve(ctx context.Context, query parser.Query, _ *magic.Prepared, o ReadOpts) ([]map[term.Var]term.Term, parser.Query, error) {
	ctx, cancel := mv.withDeadline(ctx, o.Deadline)
	defer cancel()
	sols, err := eval.SolveLimitsCtx(ctx, query.Body, mv.inner.Snapshot(), o.limits())
	return sols, query, err
}
