package query

// The differential plan-vs-interpreter suite: every query in the corpus is
// evaluated twice, once with the planner enabled (the default) and once
// forced through the generic interpreter, and the two answers must be
// identical — same variables, same rows, same Complete flag, and for the
// enumeration path the same row order and budget accounting. This is the
// regression net under the compiled fast paths: any divergence between a
// compiled plan and the evaluator semantics it replaces fails here first.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/presburger"
)

// diffCorpusActive is the active-domain corpus: formulas chosen to land in
// every plan tier (safe-range → algebra; negation/universal/equality-only →
// closure; vacuous quantification → closure via the column-set gate).
var diffCorpusActive = []string{
	// Algebra tier: safe-range shapes.
	"F(x, y)",
	"exists y. F(x, y)",
	"F(x, y) & F(y, z)",
	"F(x, y) & (F(y, z) | F(z, x))",
	`F("adam", y)`,
	// Closure tier: outside the safe-range fragment.
	"~F(x, y)",
	"x = y",
	"x != y & F(x, y)",
	"forall y. (F(x, y) -> ~(x = y))",
	"forall y. (F(x, y) -> F(x, y))",
	`forall y. (F("cain", y) -> F(x, y))`,
	"exists y. (F(y, x) & y = y)",
	"x = x & (exists x. F(x, y))",
	// Boolean queries (no free variables).
	`exists x. F("adam", x)`,
	`exists x. F("enoch", x)`,
	"forall x. (exists y. F(x, y) -> x = x)",
	// Constants outside the active domain.
	`x = "ghost"`,
	`x = "adam" | x = "ghost"`,
}

// evalBothActive evaluates f with the planner on and off and returns the
// two answers.
func evalBothActive(t *testing.T, st *db.State, f *logic.Formula) (on, off *Answer) {
	t.Helper()
	prev := plan.SetEnabled(true)
	defer plan.SetEnabled(prev)
	on, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("planner on: %v", err)
	}
	plan.SetEnabled(false)
	off, err = EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("planner off: %v", err)
	}
	return on, off
}

func sameVars(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlanDifferentialActive(t *testing.T) {
	st := fathersState(t)
	for _, src := range diffCorpusActive {
		f := parser.MustParse(src)
		on, off := evalBothActive(t, st, f)
		if !sameVars(on.Vars, off.Vars) {
			t.Errorf("%s: vars differ: plan %v, interp %v", src, on.Vars, off.Vars)
		}
		if on.Complete != off.Complete {
			t.Errorf("%s: Complete differs: plan %v, interp %v", src, on.Complete, off.Complete)
		}
		if kOn, kOff := rowsKey(t, on), rowsKey(t, off); kOn != kOff {
			t.Errorf("%s: rows differ:\nplan:   %s\ninterp: %s", src, kOn, kOff)
		}
	}
}

// TestPlanDifferentialActiveEmptyRelation: an atom over an empty relation
// makes Translate drop its variables, which changes the answer shape on
// some paths; the planner must agree with the interpreter here too.
func TestPlanDifferentialActiveEmptyRelation(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 1}))
	if err := st.Insert("S", domain.Word("a")); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"R(x)", "~R(x)", "R(x) & S(x)", "S(x) & ~R(x)"} {
		f := parser.MustParse(src)
		on, off := evalBothActive(t, st, f)
		if kOn, kOff := rowsKey(t, on), rowsKey(t, off); kOn != kOff {
			t.Errorf("%s: rows differ:\nplan:   %s\ninterp: %s", src, kOn, kOff)
		}
	}
}

// enumState is the arithmetic fixture of the enumeration tests over
// Presburger arithmetic: R = {3, 7} and S = {(2,0), (0,2), (4,1), (1,1),
// (5,3)}.
func enumState(t *testing.T) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 2}))
	for _, n := range []int64{3, 7} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]int64{{2, 0}, {0, 2}, {4, 1}, {1, 1}, {5, 3}} {
		if err := st.Insert("S", domain.Int(p[0]), domain.Int(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// touchesS is ∃y (S(x, y) ∨ S(y, x)) ∧ ¬R(x): the S endpoints outside R,
// {0, 1, 2, 4, 5}. It is safe-range, so it plans to the algebra tier and
// the planner-on enumeration replays the materialized answer.
func touchesS() *logic.Formula {
	return parser.MustParse("exists y. (S(x, y) | S(y, x)) & ~R(x)")
}

// requireAlgebraTier fails the test unless f plans to the algebra tier,
// so a planner-on run cannot silently fall back to the generic loop and
// compare the interpreter with itself.
func requireAlgebraTier(t *testing.T, st *db.State, f *logic.Formula) {
	t.Helper()
	if tier := plan.For(context.Background(), st.Scheme(), presburger.Domain{}.Name(), "", f).Tier(); tier != plan.TierAlgebra {
		t.Fatalf("%v: plan tier %s, want the algebra tier", f, tier)
	}
}

// evalBothEnum runs the §1.1 algorithm with the planner on and off.
func evalBothEnum(t *testing.T, st *db.State, f *logic.Formula, budget EnumerationBudget) (on, off *Answer) {
	t.Helper()
	requireAlgebraTier(t, st, f)
	prev := plan.SetEnabled(true)
	defer plan.SetEnabled(prev)
	on, err := EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f, budget)
	if err != nil {
		t.Fatalf("planner on: %v", err)
	}
	plan.SetEnabled(false)
	off, err = EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f, budget)
	if err != nil {
		t.Fatalf("planner off: %v", err)
	}
	return on, off
}

// sameRowSeq compares answers row for row: the enumeration path promises
// not just the same set but the same enumeration order.
func sameRowSeq(a, b *Answer) bool {
	ta, tb := a.Rows.Tuples(), b.Rows.Tuples()
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i].Key() != tb[i].Key() {
			return false
		}
	}
	return true
}

func TestPlanDifferentialEnumerate(t *testing.T) {
	st := enumState(t)
	on, off := evalBothEnum(t, st, touchesS(), DefaultBudget)
	if on.Complete != off.Complete {
		t.Errorf("Complete differs: plan %v, interp %v", on.Complete, off.Complete)
	}
	if !sameRowSeq(on, off) {
		t.Errorf("row sequences differ:\nplan:   %v\ninterp: %v", on.Rows.Tuples(), off.Rows.Tuples())
	}
	if !on.Complete || on.Rows.Len() != 5 {
		t.Errorf("want 5 complete rows, got %d complete=%v", on.Rows.Len(), on.Complete)
	}
}

// TestPlanDifferentialEnumerateRowBudget: a row budget below the answer
// size stops both paths at the same partial prefix.
func TestPlanDifferentialEnumerateRowBudget(t *testing.T) {
	st := enumState(t)
	on, off := evalBothEnum(t, st, touchesS(), EnumerationBudget{Rows: 3, Probe: 1 << 12})
	if on.Complete || off.Complete {
		t.Errorf("row-budget run reported complete: plan %v, interp %v", on.Complete, off.Complete)
	}
	if !sameRowSeq(on, off) {
		t.Errorf("partial row sequences differ:\nplan:   %v\ninterp: %v", on.Rows.Tuples(), off.Rows.Tuples())
	}
	if on.Rows.Len() != 3 {
		t.Errorf("want 3 rows under the budget, got %d", on.Rows.Len())
	}
}

// TestPlanDifferentialEnumerateProbeBudget: a probe budget too small to
// reach the next row stops both paths identically.
func TestPlanDifferentialEnumerateProbeBudget(t *testing.T) {
	st := enumState(t)
	on, off := evalBothEnum(t, st, touchesS(), EnumerationBudget{Rows: 100, Probe: 4})
	if on.Complete != off.Complete {
		t.Errorf("Complete differs: plan %v, interp %v", on.Complete, off.Complete)
	}
	if !sameRowSeq(on, off) {
		t.Errorf("probe-budget row sequences differ:\nplan:   %v\ninterp: %v", on.Rows.Tuples(), off.Rows.Tuples())
	}
}

// TestPlanDifferentialCancelled: a context dead on arrival yields the same
// partial answer (no rows, Complete=false) and a context error both ways.
func TestPlanDifferentialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := fathersState(t)
	f := parser.MustParse("exists y. F(x, y)")

	prev := plan.SetEnabled(true)
	defer plan.SetEnabled(prev)
	for _, planned := range []bool{true, false} {
		plan.SetEnabled(planned)
		ans, err := EvalActiveCtx(ctx, eqdom.Domain{}, st, f)
		if err == nil || !canceledErr(err) {
			t.Fatalf("planner=%v: want context error, got %v", planned, err)
		}
		if ans == nil || ans.Complete || ans.Rows.Len() != 0 {
			t.Errorf("planner=%v: want empty partial answer, got %+v", planned, ans)
		}
	}

	est := enumState(t)
	requireAlgebraTier(t, est, touchesS())
	for _, planned := range []bool{true, false} {
		plan.SetEnabled(planned)
		ans, err := EnumerationAnswerCtx(ctx, presburger.Domain{}, presburger.Decider(), est, touchesS(), DefaultBudget)
		if err == nil || !canceledErr(err) {
			t.Fatalf("planner=%v (enum): want context error, got %v", planned, err)
		}
		if ans == nil || ans.Complete || ans.Rows.Len() != 0 {
			t.Errorf("planner=%v (enum): want empty partial answer, got %+v", planned, ans)
		}
	}
}

// TestPlanDifferentialRandom: a random formula population (conjunction,
// disjunction, negation, both quantifiers, equality) evaluated both ways
// over the fathers fixture.
func TestPlanDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	st := fathersState(t)
	vars := []string{"x", "y", "z"}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		if d == 0 {
			if rng.Intn(3) == 0 {
				return logic.Eq(logic.Var(vars[rng.Intn(3)]), logic.Var(vars[rng.Intn(3)]))
			}
			return logic.Atom("F", logic.Var(vars[rng.Intn(3)]), logic.Var(vars[rng.Intn(3)]))
		}
		switch rng.Intn(6) {
		case 0:
			return logic.And(rec(d-1), rec(d-1))
		case 1:
			return logic.Or(rec(d-1), rec(d-1))
		case 2:
			return logic.Not(rec(d - 1))
		case 3:
			return logic.Implies(rec(d-1), rec(d-1))
		case 4:
			return logic.Forall(vars[rng.Intn(3)], rec(d-1))
		default:
			return logic.Exists(vars[rng.Intn(3)], rec(d-1))
		}
	}
	for i := 0; i < 150; i++ {
		f := rec(3)
		on, off := evalBothActive(t, st, f)
		if kOn, kOff := rowsKey(t, on), rowsKey(t, off); kOn != kOff {
			t.Errorf("%v: rows differ:\nplan:   %s\ninterp: %s", f, kOn, kOff)
		}
		if on.Complete != off.Complete {
			t.Errorf("%v: Complete differs", f)
		}
	}
}

// enumRun is one enumeration as the budget tests compare it: the rows in
// delivery order, Complete, and the query.enumerate.probes delta.
type enumRun struct {
	rows     []db.Tuple
	complete bool
	probes   int64
}

func enumerateRun(t *testing.T, planned bool, st *db.State, f *logic.Formula, budget EnumerationBudget) enumRun {
	t.Helper()
	prev := plan.SetEnabled(planned)
	defer plan.SetEnabled(prev)
	var run enumRun
	sink := func(_ []string, row db.Tuple) error {
		run.rows = append(run.rows, row)
		return nil
	}
	p0 := mEnumProbes.Value()
	ans, err := EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, f, budget, sink)
	if err != nil {
		t.Fatalf("planner=%v %v %+v: %v", planned, f, budget, err)
	}
	if ans.Rows.Len() != len(run.rows) {
		t.Fatalf("planner=%v %v %+v: %d rows delivered, %d in the answer", planned, f, budget, len(run.rows), ans.Rows.Len())
	}
	run.complete = ans.Complete
	run.probes = mEnumProbes.Value() - p0
	return run
}

// candidateIndex is the position of a tuple in the §1.1 candidate order.
func candidateIndex(dom Enumerable, tuple db.Tuple) int {
	gen := newTupleGen(len(tuple))
	cand := make(db.Tuple, len(tuple))
	for i := 0; ; i++ {
		for j, n := range gen.next() {
			cand[j] = dom.Element(n)
		}
		if cand.Key() == tuple.Key() {
			return i
		}
	}
}

// TestPlanDifferentialEnumerateBudgets: the algebra tier's single-pass
// replay agrees with the interpreter's per-row rescanning loop — same rows
// in the same delivery order, same Complete flag, same probe count — with
// row and probe budgets of 1, exactly enough, one short, and plenty.
func TestPlanDifferentialEnumerateBudgets(t *testing.T) {
	st := enumState(t)
	for _, f := range []*logic.Formula{
		touchesS(),
		parser.MustParse("S(x, y)"),
		parser.MustParse("exists z. (S(x, z) & S(z, y))"),
	} {
		requireAlgebraTier(t, st, f)
		full := enumerateRun(t, false, st, f, DefaultBudget)
		if !full.complete || len(full.rows) < 2 {
			t.Fatalf("%v: reference run gave %d rows, complete=%v", f, len(full.rows), full.complete)
		}
		n := len(full.rows)
		last := candidateIndex(presburger.Domain{}, full.rows[n-1])
		for _, rowsBudget := range []int{1, n - 1, n, DefaultBudget.Rows} {
			for _, probeBudget := range []int{1, last, last + 1, DefaultBudget.Probe} {
				budget := EnumerationBudget{Rows: rowsBudget, Probe: probeBudget}
				on := enumerateRun(t, true, st, f, budget)
				off := enumerateRun(t, false, st, f, budget)
				if on.complete != off.complete {
					t.Errorf("%v %+v: Complete plan %v, interp %v", f, budget, on.complete, off.complete)
				}
				if on.probes != off.probes {
					t.Errorf("%v %+v: probes plan %d, interp %d", f, budget, on.probes, off.probes)
				}
				if fmt.Sprint(on.rows) != fmt.Sprint(off.rows) {
					t.Errorf("%v %+v: row order differs:\nplan:   %v\ninterp: %v", f, budget, on.rows, off.rows)
				}
			}
		}
	}
}
