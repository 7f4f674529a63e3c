package magic

import (
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/lderr"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Prepared is a query compiled once for a binding pattern: the program is
// adorned, magic-rewritten, and stratum-grouped up front, with the seed
// fact factored out so Exec can re-bind the query's constants per call.
// Adornment depends only on which argument positions are ground — never on
// their values — so one Prepared serves every query of the same predicate
// and binding pattern.  A Prepared is immutable after PrepareVariant and
// safe for concurrent Exec calls.
type Prepared struct {
	// Adorned and Rewritten are the compiled forms, as in Result.
	Adorned   *AdornedProgram
	Rewritten *Rewritten
	// groups holds the rewritten rules grouped by stratum, with the seed
	// fact removed — Exec supplies the seed from its per-call constants.
	groups [][]ast.Rule
	// seedPred is the magic predicate the seed fact instantiates.
	seedPred string
	// boundPos lists the query-literal argument positions that are bound
	// under the adornment, ascending; Exec constants bind here in order.
	boundPos []int
	// defaults are the seed constants of the original query, used when
	// Exec is called without explicit constants.
	defaults []term.Term
}

// Prepare compiles program + query for repeated execution under the Basic
// rewriting variant.
func Prepare(p *ast.Program, query parser.Query) (*Prepared, error) {
	return PrepareVariant(p, query, Basic)
}

// PrepareVariant is Prepare under an explicit choice of rewriting variant.
func PrepareVariant(p *ast.Program, query parser.Query, v Variant) (*Prepared, error) {
	ap, err := Adorn(p, query)
	if err != nil {
		return nil, err
	}
	var rw *Rewritten
	if v == Supplementary {
		rw, err = RewriteSupplementary(ap)
	} else {
		rw, err = Rewrite(ap)
	}
	if err != nil {
		return nil, err
	}
	pr := &Prepared{
		Adorned:   ap,
		Rewritten: rw,
		seedPred:  rw.Seed.Head.Pred,
		defaults:  append([]term.Term(nil), rw.Seed.Head.Args...),
	}
	for i := range ap.QueryLit.Args {
		if ap.QueryAdorn.Bound(i) {
			pr.boundPos = append(pr.boundPos, i)
		}
	}
	// Group rewritten rules by assigned stratum, leaving out the seed fact
	// (the only fact whose head is the seed's magic predicate — magic rules
	// for that predicate all carry bodies).
	pr.groups = make([][]ast.Rule, rw.NumStrata)
	for _, r := range rw.Program.Rules {
		if r.IsFact() && r.Head.Pred == pr.seedPred {
			continue
		}
		s := rw.Strata[r.Head.Pred]
		pr.groups[s] = append(pr.groups[s], r)
	}
	return pr, nil
}

// BoundPositions returns the query-argument positions Exec constants bind,
// in the order Exec expects them.
func (pr *Prepared) BoundPositions() []int {
	return append([]int(nil), pr.boundPos...)
}

// NumBound is the number of constants Exec expects.
func (pr *Prepared) NumBound() int { return len(pr.boundPos) }

// Defaults returns the seed constants of the original query (already
// normalized at rewrite time), in BoundPositions order.
func (pr *Prepared) Defaults() []term.Term {
	return append([]term.Term(nil), pr.defaults...)
}

// Exec evaluates the prepared query against edb with the given constants
// bound at the query's bound argument positions (in BoundPositions order).
// Nil consts re-runs the original query's constants.  The iterated
// stratified saturation is identical to AnswerVariant's; only the
// parse/adorn/rewrite/stratify work is skipped.
func (pr *Prepared) Exec(edb *store.DB, consts []term.Term, opts eval.Options) (*Result, error) {
	if consts == nil {
		consts = pr.defaults
	}
	if len(consts) != len(pr.boundPos) {
		return nil, fmt.Errorf("magic: prepared query %s^%s takes %d constants, got %d",
			pr.Adorned.QueryPred, pr.Adorned.QueryAdorn, len(pr.boundPos), len(consts))
	}
	seedArgs := make([]term.Term, len(consts))
	for i, c := range consts {
		v, err := unify.Apply(c, unify.NewBindings())
		if err != nil {
			return nil, fmt.Errorf("magic: prepared constant %s: %w", c, err)
		}
		if !term.IsGround(v) {
			return nil, fmt.Errorf("magic: prepared constant %s is not ground", c)
		}
		seedArgs[i] = v
	}
	seed := term.NewFact(pr.seedPred, seedArgs...)

	acc := store.NewDB() // accumulated magic facts
	res := &Result{Adorned: pr.Adorned, Rewritten: pr.Rewritten}
	for pass := 1; ; pass++ {
		if pass > maxPasses {
			return nil, fmt.Errorf("magic: no fixpoint after %d passes", maxPasses)
		}
		if opts.Ctx != nil {
			if err := lderr.FromContext(opts.Ctx); err != nil {
				return nil, err
			}
		}
		db := edb.Clone()
		db.Insert(seed)
		// Accumulated magic facts splice in through the batch path.
		db.LoadFacts(acc.Facts(), store.LoadOpts{})
		if err := eval.EvalGroups(pr.groups, db, opts); err != nil {
			return nil, err
		}
		grew := false
		for pred := range pr.Rewritten.MagicPreds {
			if !db.Has(pred) {
				continue
			}
			for _, f := range db.Rel(pred).All() {
				if acc.Insert(f) {
					grew = true
				}
			}
		}
		res.Passes = pass
		if !grew {
			res.DB = db
			break
		}
	}

	// Read the answers off the adorned query predicate, with the per-call
	// constants substituted at the bound positions.
	qargs := append([]term.Term(nil), pr.Adorned.QueryLit.Args...)
	for i, pos := range pr.boundPos {
		qargs[pos] = seedArgs[i]
	}
	qlit := ast.Literal{Pred: pr.Rewritten.AnswerPred, Args: qargs}
	sols, err := eval.SolveCtx(opts.Ctx, []ast.Literal{qlit}, res.DB)
	if err != nil {
		return nil, err
	}
	res.Solutions = sols
	return res, nil
}
