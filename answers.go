package ldl1

import (
	"sort"
	"strings"

	"ldl1/internal/parser"
	"ldl1/internal/term"
)

// Answers holds the solutions of a query: one row per answer, with columns
// in Vars order (first occurrence in the query).
type Answers struct {
	// Vars are the query's variable names in first-occurrence order.
	Vars []string
	// Rows holds one term per variable per solution, sorted
	// deterministically.  Rows may be shared with the answer cache and
	// with other callers' answers: treat them as read-only.
	Rows [][]Term
}

func newAnswers(q parser.Query, sols []map[term.Var]term.Term) *Answers {
	vars := queryVars(q)
	return &Answers{Vars: varNames(vars), Rows: sortedRows(vars, sols)}
}

// queryVars lists the query's variables in first-occurrence order.
func queryVars(q parser.Query) []term.Var {
	seen := map[term.Var]bool{}
	var vars []term.Var
	for _, l := range q.Body {
		for _, v := range l.Vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	return vars
}

func varNames(vars []term.Var) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = string(v)
	}
	return out
}

// sortedRows projects each solution onto vars and sorts the rows.
func sortedRows(vars []term.Var, sols []map[term.Var]term.Term) [][]Term {
	var rows [][]Term
	for _, sol := range sols {
		row := make([]Term, len(vars))
		for i, v := range vars {
			row[i] = sol[v]
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			x, y := rows[i][k], rows[j][k]
			if x == nil || y == nil {
				continue
			}
			if c := term.Compare(x, y); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return rows
}

// Len returns the number of answers.
func (a *Answers) Len() int { return len(a.Rows) }

// Empty reports whether the query failed (no answers).
func (a *Answers) Empty() bool { return len(a.Rows) == 0 }

// String renders the answers as a small table.
func (a *Answers) String() string {
	if a.Empty() {
		return "no"
	}
	var b strings.Builder
	for _, row := range a.Rows {
		parts := make([]string, 0, len(row))
		for i, t := range row {
			if t == nil {
				continue
			}
			parts = append(parts, a.Vars[i]+" = "+t.String())
		}
		if len(parts) == 0 {
			b.WriteString("yes")
		} else {
			b.WriteString(strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}
