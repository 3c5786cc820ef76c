package algebra_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/query"
)

// sameColSet reports set equality of column name lists.
func sameColSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if !set[c] {
			return false
		}
	}
	return true
}

func fathersCtx(t *testing.T) *algebra.Ctx {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for _, p := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"cain", "enoch"}} {
		if err := st.Insert("F", domain.Word(p[0]), domain.Word(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	return &algebra.Ctx{St: st, Dom: eqdom.Domain{}}
}

func mustEval(t *testing.T, ctx *algebra.Ctx, e algebra.Expr) *algebra.Table {
	t.Helper()
	tab, err := e.Eval(ctx)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e.String(), err)
	}
	return tab
}

func TestBaseAndProject(t *testing.T) {
	ctx := fathersCtx(t)
	base := &algebra.Base{Rel: "F", Cols: []string{"f", "s"}}
	tab := mustEval(t, ctx, base)
	if tab.Len() != 3 {
		t.Fatalf("base rows = %d", tab.Len())
	}
	proj := mustEval(t, ctx, &algebra.Project{In: base, Cols: []string{"f"}})
	if proj.Len() != 2 { // adam, cain
		t.Errorf("projection rows = %d, want 2", proj.Len())
	}
	if _, err := (&algebra.Project{In: base, Cols: []string{"zzz"}}).Eval(ctx); err == nil {
		t.Errorf("projection on missing column accepted")
	}
	if _, err := (&algebra.Base{Rel: "F", Cols: []string{"a"}}).Eval(ctx); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if _, err := (&algebra.Base{Rel: "F", Cols: []string{"a", "a"}}).Eval(ctx); err == nil {
		t.Errorf("duplicate columns accepted")
	}
}

func TestSelectConditions(t *testing.T) {
	ctx := fathersCtx(t)
	base := &algebra.Base{Rel: "F", Cols: []string{"f", "s"}}
	sel := mustEval(t, ctx, &algebra.Select{In: base,
		Cond: algebra.CondEq{A: algebra.ColArg("f"), B: algebra.ConstArg("adam")}})
	if sel.Len() != 2 {
		t.Errorf("select f=adam rows = %d", sel.Len())
	}
	neg := mustEval(t, ctx, &algebra.Select{In: base,
		Cond: algebra.CondNot{C: algebra.CondEq{A: algebra.ColArg("f"), B: algebra.ConstArg("adam")}}})
	if neg.Len() != 1 {
		t.Errorf("negated select rows = %d", neg.Len())
	}
	both := mustEval(t, ctx, &algebra.Select{In: base, Cond: algebra.CondAnd{Cs: []algebra.Cond{
		algebra.CondEq{A: algebra.ColArg("f"), B: algebra.ConstArg("adam")},
		algebra.CondEq{A: algebra.ColArg("s"), B: algebra.ConstArg("abel")},
	}}})
	if both.Len() != 1 {
		t.Errorf("conjunctive select rows = %d", both.Len())
	}
}

func TestJoinNatural(t *testing.T) {
	ctx := fathersCtx(t)
	// Grandfather: F(f, m) ⋈ F(m, s) via renaming.
	l := &algebra.Base{Rel: "F", Cols: []string{"f", "m"}}
	r := &algebra.Base{Rel: "F", Cols: []string{"m", "s"}}
	g := mustEval(t, ctx, &algebra.Project{In: &algebra.Join{L: l, R: r}, Cols: []string{"f", "s"}})
	if g.Len() != 1 {
		t.Fatalf("grandfather rows = %d", g.Len())
	}
	row := g.Rows()[0]
	if row[0].Key() != "adam" || row[1].Key() != "enoch" {
		t.Errorf("grandfather = %v", row)
	}
	// Cross product when no shared columns.
	cross := mustEval(t, ctx, &algebra.Join{
		L: &algebra.Base{Rel: "F", Cols: []string{"a", "b"}},
		R: &algebra.Base{Rel: "F", Cols: []string{"c", "d"}}})
	if cross.Len() != 9 {
		t.Errorf("cross product rows = %d, want 9", cross.Len())
	}
}

func TestUnionDiff(t *testing.T) {
	ctx := fathersCtx(t)
	fathers := &algebra.Project{In: &algebra.Base{Rel: "F", Cols: []string{"x", "s"}}, Cols: []string{"x"}}
	sons := &algebra.Project{In: &algebra.Base{Rel: "F", Cols: []string{"f", "x"}}, Cols: []string{"x"}}
	u := mustEval(t, ctx, &algebra.Union{L: fathers, R: sons})
	if u.Len() != 4 { // adam, cain, abel, enoch
		t.Errorf("union rows = %d, want 4", u.Len())
	}
	d := mustEval(t, ctx, &algebra.Diff{L: sons, R: fathers})
	if d.Len() != 2 { // abel, enoch (cain is both)
		t.Errorf("diff rows = %d, want 2", d.Len())
	}
	// Column mismatch errors.
	if _, err := (&algebra.Union{L: fathers, R: &algebra.Base{Rel: "F", Cols: []string{"a", "b"}}}).Eval(ctx); err == nil {
		t.Errorf("union with mismatched columns accepted")
	}
}

func TestUnionAlignsColumns(t *testing.T) {
	ctx := fathersCtx(t)
	// Same column set in different order must align by name.
	l := &algebra.Base{Rel: "F", Cols: []string{"a", "b"}}
	r := &algebra.Project{In: &algebra.Base{Rel: "F", Cols: []string{"b", "a"}}, Cols: []string{"a", "b"}}
	u := mustEval(t, ctx, &algebra.Union{L: l, R: r})
	// r is F with swapped roles: (abel,adam) etc. algebra.Union has 6 distinct rows.
	if u.Len() != 6 {
		t.Errorf("aligned union rows = %d, want 6", u.Len())
	}
}

func TestRenameExtend(t *testing.T) {
	ctx := fathersCtx(t)
	base := &algebra.Base{Rel: "F", Cols: []string{"f", "s"}}
	ren := mustEval(t, ctx, &algebra.Rename{In: base, From: "f", To: "parent"})
	if ren.Cols[0] != "parent" {
		t.Errorf("rename failed: %v", ren.Cols)
	}
	ext := mustEval(t, ctx, &algebra.Extend{In: base, NewCol: "f2", FromCol: "f"})
	for _, row := range ext.Rows() {
		if row[0].Key() != row[2].Key() {
			t.Errorf("extend copied wrong values: %v", row)
		}
	}
	if _, err := (&algebra.Rename{In: base, From: "zz", To: "w"}).Eval(ctx); err == nil {
		t.Errorf("rename of missing column accepted")
	}
	if _, err := (&algebra.Extend{In: base, NewCol: "f", FromCol: "s"}).Eval(ctx); err == nil {
		t.Errorf("extend to duplicate column accepted")
	}
}

func TestCondPredDomain(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 2}))
	if err := st.Insert("R", domain.Int(1), domain.Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("R", domain.Int(7), domain.Int(2)); err != nil {
		t.Fatal(err)
	}
	ctx := &algebra.Ctx{St: st, Dom: presburger.Domain{}}
	sel := mustEval(t, ctx, &algebra.Select{
		In:   &algebra.Base{Rel: "R", Cols: []string{"a", "b"}},
		Cond: algebra.CondPred{Pred: presburger.PredLt, Args: []algebra.Arg{algebra.ColArg("a"), algebra.ColArg("b")}},
	})
	if sel.Len() != 1 || sel.Rows()[0][0].Key() != "1" {
		t.Errorf("lt selection wrong: %v", sel)
	}
}

func TestLitAndDatabaseConstants(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"R": 1}, "c")
	st := db.NewState(scheme)
	if err := st.SetConstant("c", domain.Word("v")); err != nil {
		t.Fatal(err)
	}
	ctx := &algebra.Ctx{St: st, Dom: eqdom.Domain{}}
	lit := mustEval(t, ctx, &algebra.Lit{Cols: []string{"x"}, Rows: [][]string{{"c"}, {"w"}}})
	if lit.Len() != 2 || !lit.Has([]domain.Value{domain.Word("v")}) {
		t.Errorf("database constant not resolved: %v", lit)
	}
}

// compileAndCompare compiles a safe-range formula and compares the plan's
// answer with active-domain evaluation (which agrees with the natural
// semantics on safe-range queries).
func compileAndCompare(t *testing.T, ctx *algebra.Ctx, src string) {
	t.Helper()
	f := parser.MustParse(src)
	plan, err := algebra.Compile(ctx.St.Scheme(), f)
	if err != nil {
		t.Fatalf("algebra.Compile(%s): %v", src, err)
	}
	got, err := plan.Eval(ctx)
	if err != nil {
		t.Fatalf("Eval(%s): %v", src, err)
	}
	want, err := query.EvalActiveCtx(context.Background(), ctx.Dom, ctx.St, f)
	if err != nil {
		t.Fatalf("EvalActive(%s): %v", src, err)
	}
	freeVars := f.FreeVars()
	if !sameColSet(got.Cols, freeVars) {
		t.Fatalf("%s: columns %v, free vars %v", src, got.Cols, freeVars)
	}
	if got.Len() != want.Rows.Len() {
		t.Fatalf("%s: algebra %d rows, calculus %d rows\nplan: %s\nalgebra: %v\ncalculus: %v",
			src, got.Len(), want.Rows.Len(), plan.String(), got, want.Rows.Tuples())
	}
	idx := map[string]int{}
	for i, c := range got.Cols {
		idx[c] = i
	}
	for _, row := range want.Rows.Tuples() {
		ordered := make([]domain.Value, len(freeVars))
		for i, v := range want.Vars {
			ordered[idx[v]] = row[i]
		}
		if !got.Has(ordered) {
			t.Errorf("%s: calculus row %v missing from plan output", src, row)
		}
	}
}

func TestCompileBasics(t *testing.T) {
	ctx := fathersCtx(t)
	for _, src := range []string{
		"F(x, y)",
		"F(x, x)",
		`F("adam", y)`,
		"exists y. F(x, y)",
		"F(x, y) & F(y, z)",
		"F(x, y) & x != y",
		"F(x, y) | F(y, x)",
		"F(x, y) & ~F(y, x)",
		"exists y. (F(x, y) & ~F(y, x))",
		"F(x, y) & y = z",
		`F(x, y) & z = "seth"`,
		"exists y. (exists z. (F(x, y) & F(y, z)))",
		"F(x, y) & (F(y, z) | F(z, y))",
		"true & F(x, y)",
	} {
		compileAndCompare(t, ctx, src)
	}
}

func TestCompileDomainPredicates(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 2}))
	for _, p := range [][2]int64{{1, 5}, {7, 2}, {3, 3}} {
		if err := st.Insert("R", domain.Int(p[0]), domain.Int(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	ctx := &algebra.Ctx{St: st, Dom: presburger.Domain{}}
	for _, src := range []string{
		"R(x, y) & lt(x, y)",
		"R(x, y) & ~lt(x, y)",
		"R(x, y) & lt(x, 4)",
	} {
		compileAndCompare(t, ctx, src)
	}
}

// TestCompileForall: universal conjuncts compile through the internal
// ¬∃¬ rewrite — including correlated bodies whose free variables are
// ranged by the surrounding conjunction — and agree with the calculus
// evaluator.
func TestCompileForall(t *testing.T) {
	ctx := fathersCtx(t)
	for _, src := range []string{
		// Fathers x all of whose children are fathers themselves.
		"F(x, y) & (forall z. (~F(x, z) | (exists w. F(z, w))))",
		// Correlated: every child of y is also a child of x.
		"F(x, y) & (forall z. (~F(y, z) | F(x, z)))",
		// Bound variable shadowing a ranged one must not correlate.
		"F(x, y) & (forall x. (~F(y, x) | F(x, x) | (exists w. F(x, w))))",
		// Equality inside the universal body.
		"F(x, y) & (forall z. (~F(x, z) | z = y))",
	} {
		compileAndCompare(t, ctx, src)
	}
}

// TestCompileForallSentence: closed universals compile to nullary plans —
// the guarded difference against the unit row — with the right truth
// values.
func TestCompileForallSentence(t *testing.T) {
	ctx := fathersCtx(t)
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"forall x. (forall y. (~F(x, y) | F(x, y)))", true},
		// Every father is somebody's son — false: adam has no father.
		{"forall x. (~(exists y. F(x, y)) | (exists z. F(z, x)))", false},
	} {
		f := parser.MustParse(tc.src)
		plan, err := algebra.Compile(ctx.St.Scheme(), f)
		if err != nil {
			t.Fatalf("algebra.Compile(%s): %v", tc.src, err)
		}
		tab := mustEval(t, ctx, plan)
		if got := tab.Len() > 0; got != tc.want {
			t.Errorf("%s = %v, want %v\nplan: %s", tc.src, got, tc.want, plan.String())
		}
		ans, err := query.EvalActiveCtx(context.Background(), ctx.Dom, ctx.St, f)
		if err != nil {
			t.Fatalf("EvalActive(%s): %v", tc.src, err)
		}
		if calc := ans.Rows.Len() > 0; calc != tc.want {
			t.Errorf("calculus disagrees on %s: %v", tc.src, calc)
		}
	}
}

func TestCompileRejectsUnsafe(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"F": 2})
	for _, src := range []string{
		"~F(x, y)",
		"x = y",
		"forall y. F(x, y)",
		"F(x, y) | x = z",
		"lt(x, y)",
	} {
		f := parser.MustParse(src)
		if plan, err := algebra.Compile(scheme, f); err == nil {
			t.Errorf("algebra.Compile(%s) accepted: %s", src, plan.String())
		}
	}
}

// TestCompileAgainstCalculusRandom cross-validates the compiler on random
// safe-range formulas.
func TestCompileAgainstCalculusRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctx := fathersCtx(t)
	scheme := ctx.St.Scheme()
	kept := 0
	for i := 0; i < 800 && kept < 150; i++ {
		f := randSafeCandidate(rng, 3)
		plan, err := algebra.Compile(scheme, f)
		if err != nil {
			continue // outside the fragment; fine
		}
		kept++
		got, err := plan.Eval(ctx)
		if err != nil {
			t.Fatalf("Eval of compiled %v: %v", f, err)
		}
		want, err := query.EvalActiveCtx(context.Background(), ctx.Dom, ctx.St, f)
		if err != nil {
			t.Fatalf("EvalActive(%v): %v", f, err)
		}
		if got.Len() != want.Rows.Len() {
			t.Fatalf("row count mismatch on %v: algebra %d, calculus %d (plan %s)",
				f, got.Len(), want.Rows.Len(), plan.String())
		}
	}
	if kept < 50 {
		t.Fatalf("generator produced too few compilable formulas: %d", kept)
	}
}

func randSafeCandidate(rng *rand.Rand, depth int) *logic.Formula {
	vars := []string{"x", "y", "z"}
	v := func() logic.Term { return logic.Var(vars[rng.Intn(len(vars))]) }
	atom := func() *logic.Formula {
		return logic.Atom("F", v(), v())
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(6) {
	case 0:
		return atom()
	case 1:
		return logic.And(randSafeCandidate(rng, depth-1), randSafeCandidate(rng, depth-1))
	case 2:
		return logic.Or(randSafeCandidate(rng, depth-1), randSafeCandidate(rng, depth-1))
	case 3:
		return logic.And(randSafeCandidate(rng, depth-1), logic.Not(randSafeCandidate(rng, depth-1)))
	case 4:
		return logic.Exists(vars[rng.Intn(len(vars))], randSafeCandidate(rng, depth-1))
	default:
		return logic.And(randSafeCandidate(rng, depth-1),
			logic.Neq(v(), v()))
	}
}

// TestTableHasAllocs: a membership probe (Diff's inner loop, the
// enumeration replay's candidate test) allocates no key string.
func TestTableHasAllocs(t *testing.T) {
	tab := algebra.NewTable([]string{"x", "y"})
	row := []domain.Value{domain.Int(123456), domain.Int(7)}
	if err := tab.Add(row); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !tab.Has(row) {
			t.Fatal("Has lost the row")
		}
	}); n != 0 {
		t.Errorf("Table.Has allocates %v times per call, want 0", n)
	}
}
