// Package algebra implements a relational algebra — the evaluation backend
// Codd's relational completeness theorem pairs with the calculus — and a
// compiler from safe-range calculus formulas to algebra expressions.
//
// The paper's positive syntaxes (active-domain restriction, finitization,
// safe range) matter in practice because their members evaluate by plain
// algebra plans like the ones here: every safe-range query compiles, every
// compiled plan computes the natural-semantics answer, and tests cross-check
// plans against the calculus evaluator.
package algebra

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/domain"
)

// Ctx supplies an expression evaluation with a database state and the
// domain interpretation (for constants and domain predicates).
type Ctx struct {
	St  *db.State
	Dom domain.Domain
}

// constValue resolves a constant name: database constants through the
// state, everything else through the domain.
func (c *Ctx) constValue(name string) (domain.Value, error) {
	if c.St.Scheme().HasConstant(name) {
		return c.St.Constant(name)
	}
	return c.Dom.ConstValue(name)
}

// Table is a named-column relation, the value of an algebra expression.
//
// Set-building operators read their inputs' rows map directly, in map
// order: the order rows arrive in never reaches an output, whose row order
// Rows() derives from the keys alone. Select alone iterates Rows(), so
// which row's condition error surfaces first does not depend on map order.
type Table struct {
	Cols []string
	rows map[string][]domain.Value
	// sorted is an optional prebuilt Rows() snapshot, aligned with rows;
	// it is shared by memoized base tables and dropped on mutation.
	sorted [][]domain.Value
	// shared marks rows (and sorted) as borrowed from a state memo or
	// another table: the first Add copies them instead of mutating the
	// shared view.
	shared bool
}

// NewTable returns an empty table with the given columns.
func NewTable(cols []string) *Table { return newTable(cols, 0) }

// newTable is NewTable with room for n rows.
func newTable(cols []string, n int) *Table {
	return &Table{Cols: append([]string(nil), cols...), rows: make(map[string][]domain.Value, n)}
}

// Add inserts a row (copied).
func (t *Table) Add(row []domain.Value) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("algebra: row width %d, table width %d", len(row), len(t.Cols))
	}
	if t.shared {
		rows := make(map[string][]domain.Value, len(t.rows)+1)
		for k, v := range t.rows {
			rows[k] = v
		}
		t.rows = rows
		t.shared = false
	}
	t.sorted = nil
	var buf [64]byte
	key := db.Tuple(row).AppendKey(buf[:0])
	if _, ok := t.rows[string(key)]; !ok {
		// Equal keys mean equal rows (the Value contract): no copy needed.
		t.rows[string(key)] = append([]domain.Value(nil), row...)
	}
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Rows returns the rows sorted by key. Callers must not mutate the
// returned rows (they alias the table's storage, as they always have).
func (t *Table) Rows() [][]domain.Value {
	if t.sorted != nil {
		return t.sorted
	}
	keys := make([]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]domain.Value, len(keys))
	for i, k := range keys {
		out[i] = t.rows[k]
	}
	return out
}

// Each calls fn on every row in no particular order, without the sort
// Rows pays, and stops at fn's first error. fn must not mutate the row.
func (t *Table) Each(fn func(row []domain.Value) error) error {
	for _, row := range t.rows {
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// Has reports row membership.
func (t *Table) Has(row []domain.Value) bool {
	var buf [64]byte
	_, ok := t.rows[string(db.Tuple(row).AppendKey(buf[:0]))]
	return ok
}

// colIndex maps column names to positions.
func (t *Table) colIndex() map[string]int {
	idx := make(map[string]int, len(t.Cols))
	for i, c := range t.Cols {
		idx[c] = i
	}
	return idx
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("(" + strings.Join(t.Cols, ", ") + ")")
	for _, row := range t.Rows() {
		b.WriteString(" " + db.Tuple(row).String())
	}
	return b.String()
}

// Expr is a relational algebra expression.
type Expr interface {
	// Columns returns the output column names in order.
	Columns() []string
	// Eval computes the expression's value.
	Eval(ctx *Ctx) (*Table, error)
	// String renders the plan.
	String() string
}

// Base scans a database relation, naming its columns.
type Base struct {
	Rel  string
	Cols []string
}

// Columns implements Expr.
func (b *Base) Columns() []string { return b.Cols }

// baseSnapshot is a relation materialized as table storage, memoized on
// the state so every query over an unchanged state shares one copy.
type baseSnapshot struct {
	rows   map[string][]domain.Value
	sorted [][]domain.Value
}

// Eval implements Expr. The row storage is memoized per relation on the
// state (column names differ per query, the rows do not), so a workload
// that runs many queries against one state — a batch request, a probe
// loop — materializes and sorts each base relation once. The returned
// table copies the shared storage on its first Add.
func (b *Base) Eval(ctx *Ctx) (*Table, error) {
	rel, err := ctx.St.Relation(b.Rel)
	if err != nil {
		return nil, err
	}
	if rel.Arity() != len(b.Cols) {
		return nil, fmt.Errorf("algebra: %s has arity %d, got %d column names", b.Rel, rel.Arity(), len(b.Cols))
	}
	if err := distinctCols(b.Cols); err != nil {
		return nil, err
	}
	snap := ctx.St.Memo("algebra.base:"+b.Rel, rel.Version(), func() any {
		tuples := rel.Tuples()
		s := &baseSnapshot{
			rows:   make(map[string][]domain.Value, len(tuples)),
			sorted: make([][]domain.Value, 0, len(tuples)),
		}
		var buf []byte
		for _, t := range tuples {
			row := append([]domain.Value(nil), t...)
			buf = t.AppendKey(buf[:0])
			s.rows[string(buf)] = row
			s.sorted = append(s.sorted, row)
		}
		return s
	}).(*baseSnapshot)
	return &Table{
		Cols:   append([]string(nil), b.Cols...),
		rows:   snap.rows,
		sorted: snap.sorted,
		shared: true,
	}, nil
}

// String implements Expr.
func (b *Base) String() string {
	return fmt.Sprintf("%s(%s)", b.Rel, strings.Join(b.Cols, ","))
}

// Lit is a literal table: constant rows given by constant names, resolved
// at evaluation time.
type Lit struct {
	Cols []string
	Rows [][]string
}

// Columns implements Expr.
func (l *Lit) Columns() []string { return l.Cols }

// Eval implements Expr.
func (l *Lit) Eval(ctx *Ctx) (*Table, error) {
	if err := distinctCols(l.Cols); err != nil {
		return nil, err
	}
	out := NewTable(l.Cols)
	for _, names := range l.Rows {
		if len(names) != len(l.Cols) {
			return nil, fmt.Errorf("algebra: literal row width mismatch")
		}
		row := make([]domain.Value, len(names))
		for i, n := range names {
			v, err := ctx.constValue(n)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if err := out.Add(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Expr.
func (l *Lit) String() string {
	return fmt.Sprintf("lit(%s)x%d", strings.Join(l.Cols, ","), len(l.Rows))
}

// Select filters rows by a condition.
type Select struct {
	In   Expr
	Cond Cond
}

// Columns implements Expr.
func (s *Select) Columns() []string { return s.In.Columns() }

// Eval implements Expr.
func (s *Select) Eval(ctx *Ctx) (*Table, error) {
	in, err := s.In.Eval(ctx)
	if err != nil {
		return nil, err
	}
	idx := in.colIndex()
	out := NewTable(in.Cols)
	for _, row := range in.Rows() {
		ok, err := s.Cond.Holds(ctx, idx, row)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (s *Select) String() string {
	return fmt.Sprintf("select[%s](%s)", s.Cond.String(), s.In.String())
}

// Project keeps the named columns (in the given order), deduplicating rows.
type Project struct {
	In   Expr
	Cols []string
}

// Columns implements Expr.
func (p *Project) Columns() []string { return p.Cols }

// Eval implements Expr.
func (p *Project) Eval(ctx *Ctx) (*Table, error) {
	in, err := p.In.Eval(ctx)
	if err != nil {
		return nil, err
	}
	idx := in.colIndex()
	positions := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		pos, ok := idx[c]
		if !ok {
			return nil, fmt.Errorf("algebra: project on missing column %q", c)
		}
		positions[i] = pos
	}
	out := newTable(p.Cols, in.Len())
	slim := make([]domain.Value, len(positions)) // scratch: Add copies
	for _, row := range in.rows {
		for i, pos := range positions {
			slim[i] = row[pos]
		}
		if err := out.Add(slim); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Expr.
func (p *Project) String() string {
	return fmt.Sprintf("project[%s](%s)", strings.Join(p.Cols, ","), p.In.String())
}

// Rename renames one column.
type Rename struct {
	In       Expr
	From, To string
}

// Columns implements Expr.
func (r *Rename) Columns() []string {
	out := append([]string(nil), r.In.Columns()...)
	for i, c := range out {
		if c == r.From {
			out[i] = r.To
		}
	}
	return out
}

// Eval implements Expr.
func (r *Rename) Eval(ctx *Ctx) (*Table, error) {
	in, err := r.In.Eval(ctx)
	if err != nil {
		return nil, err
	}
	cols := append([]string(nil), in.Cols...)
	found := false
	for i, c := range cols {
		if c == r.From {
			cols[i] = r.To
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("algebra: rename of missing column %q", r.From)
	}
	if err := distinctCols(cols); err != nil {
		return nil, err
	}
	// Same rows under new names: share them, copy on the first Add.
	return &Table{Cols: cols, rows: in.rows, sorted: in.sorted, shared: true}, nil
}

// String implements Expr.
func (r *Rename) String() string {
	return fmt.Sprintf("rename[%s->%s](%s)", r.From, r.To, r.In.String())
}

// Extend adds a copy of an existing column under a new name.
type Extend struct {
	In      Expr
	NewCol  string
	FromCol string
}

// Columns implements Expr.
func (e *Extend) Columns() []string {
	return append(append([]string(nil), e.In.Columns()...), e.NewCol)
}

// Eval implements Expr.
func (e *Extend) Eval(ctx *Ctx) (*Table, error) {
	in, err := e.In.Eval(ctx)
	if err != nil {
		return nil, err
	}
	idx := in.colIndex()
	pos, ok := idx[e.FromCol]
	if !ok {
		return nil, fmt.Errorf("algebra: extend from missing column %q", e.FromCol)
	}
	cols := append(append([]string(nil), in.Cols...), e.NewCol)
	if err := distinctCols(cols); err != nil {
		return nil, err
	}
	out := newTable(cols, in.Len())
	wide := make([]domain.Value, 0, len(cols)) // scratch: Add copies
	for _, row := range in.rows {
		wide = append(append(wide[:0], row...), row[pos])
		if err := out.Add(wide); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Expr.
func (e *Extend) String() string {
	return fmt.Sprintf("extend[%s:=%s](%s)", e.NewCol, e.FromCol, e.In.String())
}

// Join is the natural join: rows agreeing on all shared column names.
// Disjoint columns make it a cross product.
type Join struct {
	L, R Expr
}

// Columns implements Expr.
func (j *Join) Columns() []string {
	out := append([]string(nil), j.L.Columns()...)
	seen := map[string]bool{}
	for _, c := range out {
		seen[c] = true
	}
	for _, c := range j.R.Columns() {
		if !seen[c] {
			out = append(out, c)
		}
	}
	return out
}

// Eval implements Expr.
func (j *Join) Eval(ctx *Ctx) (*Table, error) {
	l, err := j.L.Eval(ctx)
	if err != nil {
		return nil, err
	}
	r, err := j.R.Eval(ctx)
	if err != nil {
		return nil, err
	}
	lIdx := l.colIndex()
	var rExtra []string
	var lShared, rShared, rExtraPos []int
	for i, c := range r.Cols {
		if li, ok := lIdx[c]; ok {
			lShared = append(lShared, li)
			rShared = append(rShared, i)
		} else {
			rExtra = append(rExtra, c)
			rExtraPos = append(rExtraPos, i)
		}
	}
	// Hash the right side on the shared columns, keyed by the shared
	// cells' tuple key.
	cells := make(db.Tuple, len(lShared))
	var buf []byte
	sharedKey := func(row []domain.Value, pos []int) []byte {
		for i, p := range pos {
			cells[i] = row[p]
		}
		buf = cells.AppendKey(buf[:0])
		return buf
	}
	// A key string is allocated once per distinct key; repeats find
	// their bucket by a non-allocating lookup.
	bucketOf := map[string]int{}
	var buckets [][][]domain.Value
	for _, row := range r.rows {
		key := sharedKey(row, rShared)
		b, ok := bucketOf[string(key)]
		if !ok {
			b = len(buckets)
			bucketOf[string(key)] = b
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], row)
	}
	out := NewTable(append(append([]string(nil), l.Cols...), rExtra...))
	row := make([]domain.Value, 0, len(out.Cols)) // scratch: Add copies
	for _, lrow := range l.rows {
		b, ok := bucketOf[string(sharedKey(lrow, lShared))]
		if !ok {
			continue
		}
		for _, rrow := range buckets[b] {
			row = append(row[:0], lrow...)
			for _, p := range rExtraPos {
				row = append(row, rrow[p])
			}
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (j *Join) String() string {
	return fmt.Sprintf("(%s join %s)", j.L.String(), j.R.String())
}

// Union is set union; both inputs must have the same column set, and the
// right side is reordered to match.
type Union struct {
	L, R Expr
}

// Columns implements Expr.
func (u *Union) Columns() []string { return u.L.Columns() }

// Eval implements Expr.
func (u *Union) Eval(ctx *Ctx) (*Table, error) {
	l, r, err := alignedPair(ctx, u.L, u.R)
	if err != nil {
		return nil, err
	}
	out := &Table{Cols: append([]string(nil), l.Cols...), rows: maps.Clone(l.rows)}
	for k, row := range r.rows {
		out.rows[k] = row
	}
	return out, nil
}

// String implements Expr.
func (u *Union) String() string {
	return fmt.Sprintf("(%s union %s)", u.L.String(), u.R.String())
}

// Diff is set difference (left minus right), columns aligned like Union.
type Diff struct {
	L, R Expr
}

// Columns implements Expr.
func (d *Diff) Columns() []string { return d.L.Columns() }

// Eval implements Expr.
func (d *Diff) Eval(ctx *Ctx) (*Table, error) {
	l, r, err := alignedPair(ctx, d.L, d.R)
	if err != nil {
		return nil, err
	}
	out := newTable(l.Cols, l.Len())
	for k, row := range l.rows {
		if _, ok := r.rows[k]; !ok {
			out.rows[k] = row
		}
	}
	return out, nil
}

// String implements Expr.
func (d *Diff) String() string {
	return fmt.Sprintf("(%s minus %s)", d.L.String(), d.R.String())
}

// alignedPair evaluates two expressions and reorders the right columns to
// the left's order, failing if the column sets differ. The two tables then
// key equal rows alike, so Union and Diff combine them by key, sharing the
// (never mutated) row slices instead of re-encoding and copying rows.
func alignedPair(ctx *Ctx, le, re Expr) (*Table, *Table, error) {
	l, err := le.Eval(ctx)
	if err != nil {
		return nil, nil, err
	}
	r, err := re.Eval(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(l.Cols) != len(r.Cols) {
		return nil, nil, fmt.Errorf("algebra: column sets differ: %v vs %v", l.Cols, r.Cols)
	}
	rIdx := r.colIndex()
	perm := make([]int, len(l.Cols))
	inOrder := true
	for i, c := range l.Cols {
		pos, ok := rIdx[c]
		if !ok {
			return nil, nil, fmt.Errorf("algebra: column sets differ: %v vs %v", l.Cols, r.Cols)
		}
		perm[i] = pos
		inOrder = inOrder && pos == i
	}
	if inOrder {
		return l, r, nil
	}
	aligned := newTable(l.Cols, r.Len())
	moved := make([]domain.Value, len(perm)) // scratch: Add copies
	for _, row := range r.rows {
		for i, pos := range perm {
			moved[i] = row[pos]
		}
		if err := aligned.Add(moved); err != nil {
			return nil, nil, err
		}
	}
	return l, aligned, nil
}

func distinctCols(cols []string) error {
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return fmt.Errorf("algebra: duplicate column %q", c)
		}
		seen[c] = true
	}
	return nil
}

// Cond is a selection condition.
type Cond interface {
	Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error)
	String() string
}

// Arg is a condition argument: a column reference or a constant name.
type Arg struct {
	Col   string
	Const string
	IsCol bool
}

// ColArg references a column.
func ColArg(c string) Arg { return Arg{Col: c, IsCol: true} }

// ConstArg references a constant by name.
func ConstArg(name string) Arg { return Arg{Const: name} }

func (a Arg) value(ctx *Ctx, idx map[string]int, row []domain.Value) (domain.Value, error) {
	if a.IsCol {
		pos, ok := idx[a.Col]
		if !ok {
			return nil, fmt.Errorf("algebra: condition on missing column %q", a.Col)
		}
		return row[pos], nil
	}
	return ctx.constValue(a.Const)
}

// String implements fmt.Stringer.
func (a Arg) String() string {
	if a.IsCol {
		return a.Col
	}
	return fmt.Sprintf("%q", a.Const)
}

// CondEq compares two arguments for equality.
type CondEq struct{ A, B Arg }

// Holds implements Cond.
func (c CondEq) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	av, err := c.A.value(ctx, idx, row)
	if err != nil {
		return false, err
	}
	bv, err := c.B.value(ctx, idx, row)
	if err != nil {
		return false, err
	}
	return av.Key() == bv.Key(), nil
}

// String implements Cond.
func (c CondEq) String() string { return c.A.String() + "=" + c.B.String() }

// CondPred evaluates a domain predicate on arguments.
type CondPred struct {
	Pred string
	Args []Arg
}

// Holds implements Cond.
func (c CondPred) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	vals := make([]domain.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.value(ctx, idx, row)
		if err != nil {
			return false, err
		}
		vals[i] = v
	}
	return ctx.Dom.Pred(c.Pred, vals)
}

// String implements Cond.
func (c CondPred) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Pred + "(" + strings.Join(parts, ",") + ")"
}

// CondNot negates a condition.
type CondNot struct{ C Cond }

// Holds implements Cond.
func (c CondNot) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	v, err := c.C.Holds(ctx, idx, row)
	return !v, err
}

// String implements Cond.
func (c CondNot) String() string { return "~" + c.C.String() }

// CondAnd conjoins conditions.
type CondAnd struct{ Cs []Cond }

// Holds implements Cond.
func (c CondAnd) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	for _, s := range c.Cs {
		v, err := s.Holds(ctx, idx, row)
		if err != nil || !v {
			return false, err
		}
	}
	return true, nil
}

// String implements Cond.
func (c CondAnd) String() string {
	parts := make([]string, len(c.Cs))
	for i, s := range c.Cs {
		parts[i] = s.String()
	}
	return strings.Join(parts, "&")
}
