package load

// The two built-in targets: an in-process materialized view (snapshot
// reads through the root package's read path, writes through one-transaction
// incremental maintenance) and an ldl1d server driven over HTTP through
// the Go client package.  Both are safe for concurrent Do: view reads are
// lock-free snapshot loads, view writes serialize inside incr, and the
// client is stateless over net/http.

import (
	"context"
	"fmt"

	"ldl1"
	"ldl1/client"
)

// ViewTarget executes operations against an in-process *ldl1.Materialized:
// KindQuery through QueryOpts (lock-free snapshot read, canonical answers
// served from the view's cache), KindAssert/KindRetract as one-transaction
// incremental updates.
type ViewTarget struct {
	mv   *ldl1.Materialized
	opts ldl1.ReadOpts
}

// NewViewTarget wraps a materialized view.  opts bounds every query
// operation (zero value: no per-op bounds beyond the engine's own).
func NewViewTarget(mv *ldl1.Materialized, opts ldl1.ReadOpts) *ViewTarget {
	return &ViewTarget{mv: mv, opts: opts}
}

func (t *ViewTarget) Do(ctx context.Context, op Op) error {
	switch op.Kind {
	case KindQuery:
		_, err := t.mv.QueryOpts(ctx, op.Text, t.opts)
		return err
	case KindAssert:
		_, err := t.mv.AssertCtx(ctx, op.Text)
		return err
	case KindRetract:
		_, err := t.mv.RetractCtx(ctx, op.Text)
		return err
	}
	return fmt.Errorf("load: unknown op kind %v", op.Kind)
}

// ClientTarget executes operations against one database of an ldl1d server
// through the HTTP client, so a run measures the full wire-and-handler
// stack on top of the engine.
type ClientTarget struct {
	c  *client.Client
	db string
}

// NewClientTarget wraps a server client and the database name operations
// run against.
func NewClientTarget(c *client.Client, db string) *ClientTarget {
	return &ClientTarget{c: c, db: db}
}

func (t *ClientTarget) Do(ctx context.Context, op Op) error {
	switch op.Kind {
	case KindQuery:
		_, err := t.c.Query(ctx, t.db, op.Text, nil)
		return err
	case KindAssert:
		_, err := t.c.Assert(ctx, t.db, op.Text)
		return err
	case KindRetract:
		_, err := t.c.Retract(ctx, t.db, op.Text)
		return err
	}
	return fmt.Errorf("load: unknown op kind %v", op.Kind)
}
