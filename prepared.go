package ldl1

import (
	"context"
	"fmt"
	"strings"

	"ldl1/internal/analyze"
	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/term"
)

// preparedCap bounds the engine-internal LRU of compiled query forms; a
// form costs one adorn + rewrite + stratify, so the cap only matters for
// workloads cycling through many distinct (predicate, adornment) shapes.
const preparedCap = 32

// PreparedQuery is a query compiled once for repeated execution against an
// Engine or a Materialized view.  The ground argument positions of a
// single-literal query become the parameters, and each Exec binds concrete
// constants at them.  On an engine WithMagic, a query on a derived
// predicate is adorned, magic-rewritten and stratified at Prepare time;
// otherwise Exec still skips re-parsing and answers from the engine's
// memoized model or the view's current snapshot.  A PreparedQuery is
// immutable and safe for concurrent Exec.
type PreparedQuery struct {
	src   source
	query parser.Query
	// pr is the compiled magic form; nil when Exec answers from the full
	// model instead (view, non-magic engine, multi-literal or
	// base-relation query).
	pr *magic.Prepared
	// boundPos are the query-literal argument positions Exec constants
	// bind, ascending (the ground positions of the prepared query).
	boundPos []int
}

func newPrepared(src source, query parser.Query) *PreparedQuery {
	pq := &PreparedQuery{src: src, query: query}
	if len(query.Body) == 1 {
		for i, a := range query.Body[0].Args {
			if term.IsGround(a) {
				pq.boundPos = append(pq.boundPos, i)
			}
		}
	}
	return pq
}

// Prepare compiles a query for repeated execution.  The query's ground
// argument positions become the prepared parameters: Exec with no
// arguments re-runs the original constants, Exec with N ground terms binds
// them at those positions in order.  The binding pattern (which positions
// are bound) is fixed at Prepare time; the values are not.
func (e *Engine) Prepare(q string) (*PreparedQuery, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	if e.cfg.strict {
		// Under WithStrict the program itself was vetted clean at New, so
		// any diagnostic here is attributable to the query — e.g. an
		// LDL200 type clash or an LDL202 provably empty literal.  Codes
		// and positions (within the query text) match what Vet reports
		// for the same query appended to the program source.
		e.mu.RLock()
		known := map[string]bool{}
		for _, pred := range e.edb.Preds() {
			known[pred] = true
		}
		e.mu.RUnlock()
		if ds := analyze.Program(e.original, []parser.Query{query}, analyze.Options{KnownPreds: known}); len(ds) > 0 {
			return nil, &VetError{Diagnostics: ds}
		}
	}
	pq := newPrepared(e, query)
	if e.usesMagic(query) {
		if pq.pr, err = e.preparedFor(query); err != nil {
			return nil, err
		}
	}
	return pq, nil
}

// NumArgs is the number of arguments Exec accepts: the count of ground
// argument positions in the prepared query.
func (pq *PreparedQuery) NumArgs() int { return len(pq.boundPos) }

// Query returns the prepared query's source form.
func (pq *PreparedQuery) Query() string { return pq.query.String() }

// Exec runs the prepared query, binding args (which must be ground) at the
// prepared parameter positions; no args re-runs the original constants.
func (pq *PreparedQuery) Exec(args ...Term) (*Answers, error) {
	return pq.ExecOpts(context.Background(), ReadOpts{}, args...)
}

// ExecCtx is Exec under a context.  The engine's WithDeadline, WithLimit,
// and WithMemBudget bounds apply exactly as they do to QueryCtx: each Exec
// is one evaluation under a fresh deadline, and a breach aborts with the
// same taxonomy error the unprepared path returns.
func (pq *PreparedQuery) ExecCtx(ctx context.Context, args ...Term) (*Answers, error) {
	return pq.ExecOpts(ctx, ReadOpts{}, args...)
}

// ExecOpts is ExecCtx under per-call resource bounds.  Against a view,
// each Exec sees the snapshot current at its start.
func (pq *PreparedQuery) ExecOpts(ctx context.Context, o ReadOpts, args ...Term) (*Answers, error) {
	query := pq.query
	if len(args) > 0 {
		if len(args) != len(pq.boundPos) {
			return nil, fmt.Errorf("ldl1: prepared query takes %d arguments, got %d", len(pq.boundPos), len(args))
		}
		consts, err := normalizeConsts(args)
		if err != nil {
			return nil, err
		}
		lit := query.Body[0]
		newArgs := append([]term.Term(nil), lit.Args...)
		for i, pos := range pq.boundPos {
			newArgs[pos] = consts[i]
		}
		query = parser.Query{Body: []ast.Literal{{Negated: lit.Negated, Pred: lit.Pred, Args: newArgs}}}
	}
	return read(ctx, pq.src, query, pq.pr, o)
}

// usesMagic reports whether the engine answers query through the magic
// pipeline: WithMagic, and a single literal on a derived predicate.
func (e *Engine) usesMagic(query parser.Query) bool {
	return e.cfg.magic && len(query.Body) == 1 && e.isDerived(query.Body[0].Pred)
}

// solve is the engine's evaluation step: a compiled magic form under the
// read lock when the engine answers query through the magic pipeline,
// otherwise a filter over the memoized model.
func (e *Engine) solve(ctx context.Context, query parser.Query, pr *magic.Prepared, o ReadOpts) ([]map[term.Var]term.Term, parser.Query, error) {
	ctx, cancel := e.withDeadline(ctx, o.Deadline)
	defer cancel()
	if !e.usesMagic(query) {
		m, err := e.RunCtx(ctx)
		if err != nil {
			return nil, query, err
		}
		sols, err := eval.SolveLimitsCtx(ctx, query.Body, m.db, o.limits())
		return sols, query, err
	}
	if pr == nil {
		var err error
		if pr, err = e.preparedFor(query); err != nil {
			return nil, query, err
		}
	}
	_, consts, err := groundArgs(query.Body[0])
	if err != nil {
		return nil, query, err
	}
	e.mu.RLock()
	opts := e.evalOpts(ctx)
	if o.MemBudget > 0 {
		opts.MemBudget = o.MemBudget
	}
	res, err := pr.Exec(e.edb, consts, opts)
	e.mu.RUnlock()
	if err != nil {
		return nil, query, err
	}
	return res.Solutions, parser.Query{Body: []ast.Literal{pr.Adorned.QueryLit}}, nil
}

// variant is the engine's configured magic rewriting variant.
func (e *Engine) variant() magic.Variant {
	if e.cfg.supplementary {
		return magic.Supplementary
	}
	return magic.Basic
}

// preparedFor returns the compiled magic form for a single-literal query,
// consulting the shared (predicate, adornment) LRU for canonical queries —
// adornment depends only on which positions are ground, so one compiled
// form serves every constant.
func (e *Engine) preparedFor(query parser.Query) (*magic.Prepared, error) {
	lit := query.Body[0]
	if e.prep == nil || !canonicalLit(lit) {
		return magic.PrepareVariant(e.source, query, e.variant())
	}
	k := qcache.Key{Pred: lit.Pred, Adorn: string(magic.AdornQuery(lit))}
	if pr, ok := e.prep.Get(k); ok {
		return pr, nil
	}
	pr, err := magic.PrepareVariant(e.source, query, e.variant())
	if err != nil {
		return nil, err
	}
	e.prep.Put(k, pr)
	return pr, nil
}

// planString renders the cost-based join plan of every rule in the query's
// dependency cone (all non-fact rules when the query is not a single
// positive literal): the execution order with each step's bound columns
// and the planner's candidate estimate against the current database.
func (e *Engine) planString(query parser.Query) string {
	var cone map[string]bool
	if len(query.Body) == 1 && !query.Body[0].Negated {
		cone = e.cone(query.Body[0].Pred)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var sb strings.Builder
	env := e.typeEnvNow()
	if sigs := env.Render(); len(sigs) > 0 {
		sb.WriteString("-- inferred signatures\n")
		for _, s := range sigs {
			fmt.Fprintf(&sb, "--   %s/%d: (%s)\n", s.Pred, s.Arity, strings.Join(s.Args, ", "))
		}
	}
	for _, r := range e.source.Rules {
		if r.IsFact() {
			continue
		}
		if cone != nil && !cone[r.Head.Pred] {
			continue
		}
		db := e.edb
		if e.cfg.noReorder {
			db = nil
		}
		p, err := eval.CompileBodyDB(r, -1, nil, db, env)
		if err != nil {
			fmt.Fprintf(&sb, "%s  -- unplannable: %v\n", r.String(), err)
			continue
		}
		sb.WriteString(r.String())
		if p.Reordered {
			sb.WriteString("  -- reordered")
		}
		sb.WriteByte('\n')
		for step, idx := range p.Order {
			l := r.Body[idx]
			fmt.Fprintf(&sb, "  %d. %s", step+1, l.String())
			if cols := p.BoundCols[idx]; len(cols) > 0 {
				fmt.Fprintf(&sb, "  bound=%v", cols)
			}
			if p.Est != nil && !l.Negated && !layering.IsBuiltin(l.Pred) {
				fmt.Fprintf(&sb, "  est=%d", p.Est[step])
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
