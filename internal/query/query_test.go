package query

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/domains/nsucc"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/presburger"
)

// fathersState builds the introduction's father/son database over the
// equality domain: F(adam, abel), F(adam, cain), F(cain, enoch).
func fathersState(t *testing.T) *db.State {
	t.Helper()
	scheme := db.MustScheme(map[string]int{"F": 2})
	st := db.NewState(scheme)
	for _, pair := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"cain", "enoch"}} {
		if err := st.Insert("F", domain.Word(pair[0]), domain.Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestTranslate(t *testing.T) {
	st := fathersState(t)
	f := parser.MustParse("F(x, y)")
	pure, err := Translate(eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if preds := pure.Predicates(); len(preds) != 0 {
		t.Errorf("pure formula still has predicates %v", preds)
	}
	// The translation must be satisfied by exactly the three rows.
	dec := eqdom.Decider()
	check := func(a, b string, want bool) {
		s := logic.Subst(logic.Subst(pure, "x", logic.Const(a)), "y", logic.Const(b))
		v, err := dec.Decide(s)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if v != want {
			t.Errorf("translated F(%s,%s) = %v, want %v", a, b, v, want)
		}
	}
	check("adam", "abel", true)
	check("adam", "cain", true)
	check("cain", "enoch", true)
	check("abel", "adam", false)
	check("adam", "enoch", false)
}

func TestTranslateEmptyRelation(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	pure, err := Translate(eqdom.Domain{}, st, parser.MustParse("R(x)"))
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if pure.Kind != logic.FFalse {
		t.Errorf("empty relation should translate to false, got %v", pure)
	}
}

func TestTranslateConstants(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"R": 1}, "c")
	st := db.NewState(scheme)
	if err := st.SetConstant("c", domain.Word("v")); err != nil {
		t.Fatal(err)
	}
	f := logic.Eq(logic.Var("x"), logic.Const("c"))
	pure, err := Translate(eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	want := logic.Eq(logic.Var("x"), logic.Const("v"))
	if !pure.Equal(want) {
		t.Errorf("got %v, want %v", pure, want)
	}
	// Unset constants error only if used.
	st2 := db.NewState(scheme)
	if _, err := Translate(eqdom.Domain{}, st2, f); err == nil {
		t.Errorf("unset constant should error")
	}
	if _, err := Translate(eqdom.Domain{}, st2, parser.MustParse("R(x)")); err != nil {
		t.Errorf("unused unset constant should be fine: %v", err)
	}
}

func TestTranslateArityMismatch(t *testing.T) {
	st := fathersState(t)
	if _, err := Translate(eqdom.Domain{}, st, parser.MustParse("F(x)")); err == nil {
		t.Errorf("arity mismatch accepted")
	}
}

func TestEvalActiveFathers(t *testing.T) {
	st := fathersState(t)
	// M(x): fathers of at least two sons (the introduction's example).
	m := parser.MustParse("exists y. (exists z. (y != z & F(x, y) & F(x, z)))")
	ans, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, m)
	if err != nil {
		t.Fatalf("EvalActive: %v", err)
	}
	if ans.Rows.Len() != 1 || !ans.Rows.Has(db.Tuple{domain.Word("adam")}) {
		t.Errorf("M(x) = %v, want {adam}", ans.Rows.Tuples())
	}
	// G(x, z): grandfather pairs.
	g := parser.MustParse("exists y. (F(x, y) & F(y, z))")
	ans, err = EvalActiveCtx(context.Background(), eqdom.Domain{}, st, g)
	if err != nil {
		t.Fatalf("EvalActive: %v", err)
	}
	if ans.Rows.Len() != 1 || !ans.Rows.Has(db.Tuple{domain.Word("adam"), domain.Word("enoch")}) {
		t.Errorf("G = %v, want {(adam, enoch)}", ans.Rows.Tuples())
	}
}

func TestEvalActiveBoolean(t *testing.T) {
	st := fathersState(t)
	ans, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, parser.MustParse(`exists x. F("adam", x)`))
	if err != nil {
		t.Fatalf("EvalActive: %v", err)
	}
	if ans.Rows.Len() != 1 {
		t.Errorf("true boolean query should have one marker row")
	}
	ans, err = EvalActiveCtx(context.Background(), eqdom.Domain{}, st, parser.MustParse(`exists x. F("enoch", x)`))
	if err != nil {
		t.Fatalf("EvalActive: %v", err)
	}
	if ans.Rows.Len() != 0 {
		t.Errorf("false boolean query should be empty")
	}
}

func TestEvalActiveQueryConstants(t *testing.T) {
	// A constant outside the active domain extends the range.
	st := fathersState(t)
	f := parser.MustParse(`x = "seth"`)
	ans, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("EvalActive: %v", err)
	}
	if ans.Rows.Len() != 1 || !ans.Rows.Has(db.Tuple{domain.Word("seth")}) {
		t.Errorf("constant row missing: %v", ans.Rows.Tuples())
	}
}

func TestTupleIndicesBijective(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		seen := map[string]bool{}
		for i := 0; i < 200; i++ {
			idx, err := tupleIndices(k, i)
			if err != nil {
				t.Fatalf("k=%d i=%d: %v", k, i, err)
			}
			if len(idx) != k {
				t.Fatalf("k=%d: wrong length %d", k, len(idx))
			}
			key := ""
			for _, x := range idx {
				if x < 0 {
					t.Fatalf("negative index")
				}
				key += string(rune('0'+x)) + ","
			}
			if seen[key] {
				t.Fatalf("k=%d: duplicate tuple %v at %d", k, idx, i)
			}
			seen[key] = true
		}
	}
	// Small tuples appear early: (0,0) must be index 0, and all tuples with
	// components ≤ 2 must appear within the first 27 indices for k=3.
	if got, err := tupleIndices(2, 0); err != nil || got[0] != 0 || got[1] != 0 {
		t.Errorf("first tuple = %v (err %v)", got, err)
	}
}

// TestEnumerationFinite runs the §1.1 algorithm over ℕ with Presburger
// arithmetic: the answer of a finite query is produced completely.
func TestEnumerationFinite(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"R": 1})
	st := db.NewState(scheme)
	for _, n := range []int64{3, 7} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	// φ(x): ∃y (R(y) ∧ x < y) — the numbers below some stored number:
	// finite ({0..6}).
	f := logic.Exists("y", logic.And(
		logic.Atom("R", logic.Var("y")),
		logic.Atom(presburger.PredLt, logic.Var("x"), logic.Var("y"))))
	ans, err := EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f, DefaultBudget)
	if err != nil {
		t.Fatalf("EnumerationAnswer: %v", err)
	}
	if !ans.Complete {
		t.Fatalf("finite query reported incomplete")
	}
	if ans.Rows.Len() != 7 {
		t.Fatalf("want 7 rows, got %d: %v", ans.Rows.Len(), ans.Rows.Tuples())
	}
	for n := int64(0); n < 7; n++ {
		if !ans.Rows.Has(db.Tuple{domain.Int(n)}) {
			t.Errorf("missing row %d", n)
		}
	}
}

// TestEnumerationInfinite: an unsafe query exhausts the row budget and is
// reported incomplete — the algorithm "always stops" only for safe queries.
func TestEnumerationInfinite(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(5)); err != nil {
		t.Fatal(err)
	}
	// φ(x): ¬R(x) — infinite.
	f := logic.Not(logic.Atom("R", logic.Var("x")))
	ans, err := EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f,
		EnumerationBudget{Rows: 10, Probe: 1000})
	if err != nil {
		t.Fatalf("EnumerationAnswer: %v", err)
	}
	if ans.Complete {
		t.Fatalf("infinite query reported complete")
	}
	if ans.Rows.Len() != 10 {
		t.Errorf("budget rows = %d, want 10", ans.Rows.Len())
	}
	if ans.Rows.Has(db.Tuple{domain.Int(5)}) {
		t.Errorf("5 is in R, must not satisfy ¬R")
	}
}

// TestEnumerationTwoVariables exercises the pairing enumeration: pairs
// (x, y) with x + y = 4 over ℕ.
func TestEnumerationTwoVariables(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{}))
	f := logic.Eq(
		logic.App(presburger.FuncAdd, logic.Var("x"), logic.Var("y")),
		logic.Const("4"))
	ans, err := EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f, DefaultBudget)
	if err != nil {
		t.Fatalf("EnumerationAnswer: %v", err)
	}
	if !ans.Complete || ans.Rows.Len() != 5 {
		t.Fatalf("want 5 complete rows, got %d (complete %v)", ans.Rows.Len(), ans.Complete)
	}
	for x := int64(0); x <= 4; x++ {
		if !ans.Rows.Has(db.Tuple{domain.Int(x), domain.Int(4 - x)}) {
			t.Errorf("missing (%d, %d)", x, 4-x)
		}
	}
}

// TestEnumerationBoolean: zero free variables decide directly.
func TestEnumerationBoolean(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(2)); err != nil {
		t.Fatal(err)
	}
	f := logic.Exists("x", logic.Atom("R", logic.Var("x")))
	ans, err := EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f, DefaultBudget)
	if err != nil {
		t.Fatalf("EnumerationAnswer: %v", err)
	}
	if !ans.Complete || ans.Rows.Len() != 1 {
		t.Errorf("true boolean: %v", ans.Rows.Len())
	}
}

// TestEnumerationOverNsucc uses the successor domain: answers of x' = c.
func TestEnumerationOverNsucc(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{}))
	f := logic.Eq(logic.App(nsucc.FuncS, logic.Var("x")), logic.Const("4"))
	ans, err := EnumerationAnswer(nsucc.Domain{}, nsucc.Decider(), st, f, DefaultBudget)
	if err != nil {
		t.Fatalf("EnumerationAnswer: %v", err)
	}
	if !ans.Complete || ans.Rows.Len() != 1 || !ans.Rows.Has(db.Tuple{domain.Int(3)}) {
		t.Errorf("x' = 4 should have answer {3}: %v", ans.Rows.Tuples())
	}
}

func TestAgreementActiveVsEnumeration(t *testing.T) {
	// For a domain-independent query both evaluation strategies agree.
	st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 1}))
	for _, n := range []int64{1, 2, 3} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int64{2, 3, 4} {
		if err := st.Insert("S", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	f := parser.MustParse("R(x) & S(x)") // intersection
	active, err := EvalActiveCtx(context.Background(), presburger.Domain{}, st, f)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if active.Rows.Len() != enum.Rows.Len() || active.Rows.Len() != 2 {
		t.Fatalf("disagreement: active %d, enum %d", active.Rows.Len(), enum.Rows.Len())
	}
	for _, tp := range active.Rows.Tuples() {
		if !enum.Rows.Has(tp) {
			t.Errorf("enumeration missing %v", tp)
		}
	}
}

func TestNaturalMemberInPackage(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(4)); err != nil {
		t.Fatal(err)
	}
	inf := logic.Not(logic.Atom("R", logic.Var("x")))
	got, err := NaturalMember(presburger.Domain{}, presburger.Decider(), st, inf,
		map[string]domain.Value{"x": domain.Int(4)})
	if err != nil || got {
		t.Errorf("¬R(4): %v %v", got, err)
	}
	got, err = NaturalMember(presburger.Domain{}, presburger.Decider(), st, inf,
		map[string]domain.Value{"x": domain.Int(9)})
	if err != nil || !got {
		t.Errorf("¬R(9): %v %v", got, err)
	}
	if _, err := NaturalMember(presburger.Domain{}, presburger.Decider(), st, inf, nil); err == nil {
		t.Errorf("missing binding accepted")
	}
}

func TestEvalActiveConnectives(t *testing.T) {
	st := fathersState(t)
	cases := []struct {
		src  string
		rows int
	}{
		// Forall over the active domain.
		{`forall y. (F(x, y) -> y != "adam")`, 4}, // all AD values of x qualify except none violate
		// Implication and iff at the top level.
		{`F(x, y) -> F(y, x)`, 13},  // all pairs except the 3 non-reciprocated F rows... computed below
		{`F(x, y) <-> F(y, x)`, 10}, // neither or both
	}
	for _, c := range cases {
		f := parser.MustParse(c.src)
		ans, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
		if err != nil {
			t.Fatalf("EvalActiveCtx(%s): %v", c.src, err)
		}
		if ans.Rows.Len() != c.rows {
			t.Errorf("EvalActiveCtx(%s) = %d rows, want %d: %v", c.src, ans.Rows.Len(), c.rows, ans.Rows.Tuples())
		}
	}
}

func TestStateInterpFunctions(t *testing.T) {
	// Domain functions work through the state interpretation: successor
	// terms in queries over a state.
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(3)); err != nil {
		t.Fatal(err)
	}
	f := logic.Atom("R", logic.App(nsucc.FuncS, logic.Var("x")))
	ans, err := EvalActiveCtx(context.Background(), nsucc.Domain{}, st, f)
	if err != nil {
		t.Fatalf("EvalActive: %v", err)
	}
	// Over the active domain {3}: s(3) = 4 ∉ R → empty.
	if ans.Rows.Len() != 0 {
		t.Errorf("rows = %d, want 0", ans.Rows.Len())
	}
}
