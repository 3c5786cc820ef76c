package query

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/plan"
)

// rowsKey renders an answer's rows as a canonical sorted string.
func rowsKey(t *testing.T, a *Answer) string {
	t.Helper()
	var keys []string
	for _, row := range a.Rows.Tuples() {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Key()
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestEvalActiveUnchangedByInstrumentation asserts the instrumented
// evaluator returns results identical to the seed evaluator: the same
// query in the same state produces the same rows with observation on,
// off, and via the profiled evaluator.
func TestEvalActiveUnchangedByInstrumentation(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for _, pair := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"eve", "abel"}, {"seth", "enos"}} {
		if err := st.Insert("F", domain.Word(pair[0]), domain.Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*logic.Formula{
		logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y"))),
		logic.And(
			logic.Atom("F", logic.Var("x"), logic.Var("y")),
			logic.Not(logic.Eq(logic.Var("x"), logic.Var("y")))),
		logic.Forall("y", logic.Implies(
			logic.Atom("F", logic.Var("x"), logic.Var("y")),
			logic.Not(logic.Eq(logic.Var("x"), logic.Var("y"))))),
	}
	dom := eqdom.Domain{}
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for i, f := range queries {
		obs.Enable()
		on, err := EvalActiveCtx(context.Background(), dom, st, f)
		if err != nil {
			t.Fatalf("query %d (obs on): %v", i, err)
		}
		obs.Disable()
		off, err := EvalActiveCtx(context.Background(), dom, st, f)
		if err != nil {
			t.Fatalf("query %d (obs off): %v", i, err)
		}
		obs.Enable()
		prof, _, err := EvalActiveProfiledCtx(context.Background(), dom, st, f)
		if err != nil {
			t.Fatalf("query %d (profiled): %v", i, err)
		}
		kOn, kOff, kProf := rowsKey(t, on), rowsKey(t, off), rowsKey(t, prof)
		if kOn != kOff {
			t.Errorf("query %d: rows differ with observation on/off:\n%s\n%s", i, kOn, kOff)
		}
		if kOn != kProf {
			t.Errorf("query %d: plain and profiled rows differ:\n%s\n%s", i, kOn, kProf)
		}
		if on.Complete != off.Complete {
			t.Errorf("query %d: Complete differs with observation on/off", i)
		}
	}
}

// TestEvalActiveMetrics: evaluating a query moves the query-layer
// counters in the expected directions.
func TestEvalActiveMetrics(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	// The assignment counter is an interpreter metric; a compiled plan
	// would serve this query without assignments.
	prevPlan := plan.SetEnabled(false)
	defer plan.SetEnabled(prevPlan)
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, w := range []string{"a", "b", "c"} {
		if err := st.Insert("R", domain.Word(w)); err != nil {
			t.Fatal(err)
		}
	}
	f := logic.Atom("R", logic.Var("x"))
	calls0, rows0, leaves0 := mEvalCalls.Value(), mEvalRows.Value(), mEvalAssigns.Value()
	ans, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows.Len() != 3 {
		t.Fatalf("want 3 rows, got %d", ans.Rows.Len())
	}
	if mEvalCalls.Value() != calls0+1 {
		t.Errorf("eval calls: got %d, want %d", mEvalCalls.Value(), calls0+1)
	}
	if mEvalRows.Value() != rows0+3 {
		t.Errorf("eval rows: got %d, want %d", mEvalRows.Value(), rows0+3)
	}
	if mEvalAssigns.Value() != leaves0+3 {
		t.Errorf("eval assignments: got %d, want %d (|active domain|^|vars| = 3)", mEvalAssigns.Value(), leaves0+3)
	}
}
