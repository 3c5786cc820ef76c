package core

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/domains/nsucc"
	"repro/internal/logic"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/traces"
)

func TestFormulaEnumeratorVariety(t *testing.T) {
	e := FormulaEnumerator{Sig: Signature{
		Preds:  map[string]int{"R": 1, "F": 2},
		Consts: []string{"a", "b"},
		Vars:   []string{"x", "y"},
	}}
	kinds := map[logic.FKind]bool{}
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		f := e.Formula(i)
		if f == nil {
			t.Fatalf("Formula(%d) = nil", i)
		}
		kinds[f.Kind] = true
		seen[f.String()] = true
	}
	for _, k := range []logic.FKind{logic.FAtom, logic.FNot, logic.FAnd, logic.FOr, logic.FExists, logic.FForall} {
		if !kinds[k] {
			t.Errorf("enumeration never produces kind %d", k)
		}
	}
	if len(seen) < 500 {
		t.Errorf("enumeration too repetitive: %d distinct among 3000", len(seen))
	}
	// Determinism.
	if !e.Formula(123).Equal(e.Formula(123)) {
		t.Errorf("enumeration not deterministic")
	}
}

func TestFormulaEnumeratorWithFunctions(t *testing.T) {
	e := FormulaEnumerator{Sig: Signature{
		Preds: map[string]int{"R": 1},
		Funcs: map[string]int{"s": 1},
		Vars:  []string{"x"},
	}}
	foundFunc := false
	for i := 0; i < 2000 && !foundFunc; i++ {
		e.Formula(i).Walk(func(g *logic.Formula) {
			for _, tm := range g.Args {
				if tm.Kind == logic.TApp {
					foundFunc = true
				}
			}
		})
	}
	if !foundFunc {
		t.Errorf("enumeration never uses the function symbol")
	}
}

func TestRelativizeAndRestrict(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"F": 2})
	delta := ADFormula(scheme, nil)
	f := logic.Exists("y", logic.Not(logic.Atom("F", logic.Var("x"), logic.Var("y"))))
	r := Restrict(f, delta)
	// The restriction guards the free variable x and the bound variable y.
	if !r.HasFreeVar("x") {
		t.Fatalf("free variable lost: %v", r)
	}
	if r.Kind != logic.FAnd {
		t.Fatalf("expected guard conjunction: %v", r)
	}
	// Forall bodies become implications.
	g := Restrict(logic.Forall("y", logic.Atom("F", logic.Var("y"), logic.Var("y"))), delta)
	found := false
	g.Walk(func(h *logic.Formula) {
		if h.Kind == logic.FForall && h.Sub[0].Kind == logic.FImplies {
			found = true
		}
	})
	if !found {
		t.Errorf("relativized forall should guard with implication: %v", g)
	}
}

// TestActiveDomainSyntaxFinite: restrictions are finite — here checked
// exactly with the equality-domain relative-safety decider, including
// restrictions of wildly unsafe formulas.
func TestActiveDomainSyntaxFinite(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"F": 2})
	st := db.NewState(scheme)
	if err := st.Insert("F", domain.Word("a"), domain.Word("b")); err != nil {
		t.Fatal(err)
	}
	delta := ADFormula(scheme, nil)
	unsafe := []*logic.Formula{
		logic.Not(logic.Atom("F", logic.Var("x"), logic.Var("y"))),
		logic.Eq(logic.Var("x"), logic.Var("x")),
		logic.Forall("y", logic.Neq(logic.Var("x"), logic.Var("y"))),
	}
	for _, f := range unsafe {
		r := Restrict(f, delta)
		finite, err := RelativeSafetyEq(st, r)
		if err != nil {
			t.Fatalf("RelativeSafetyEq(%v): %v", r, err)
		}
		if !finite {
			t.Errorf("restriction of %v reported infinite", f)
		}
	}
}

// TestActiveDomainSyntaxComplete: over the equality domain, a finite query
// is equivalent to its restriction — checked semantically on states by
// comparing answers.
func TestActiveDomainSyntaxEquivalenceOnFiniteQueries(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"F": 2})
	st := db.NewState(scheme)
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"c", "d"}} {
		if err := st.Insert("F", domain.Word(pair[0]), domain.Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	delta := ADFormula(scheme, nil)
	finiteQueries := []*logic.Formula{
		logic.Atom("F", logic.Var("x"), logic.Var("y")),
		logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y"))),
		logic.And(logic.Atom("F", logic.Var("x"), logic.Var("y")), logic.Neq(logic.Var("x"), logic.Var("y"))),
	}
	for _, f := range finiteQueries {
		base, err := query.EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
		if err != nil {
			t.Fatal(err)
		}
		restricted, err := query.EvalActiveCtx(context.Background(), eqdom.Domain{}, st, Restrict(f, delta))
		if err != nil {
			t.Fatal(err)
		}
		if base.Rows.Len() != restricted.Rows.Len() {
			t.Errorf("%v: restriction changed the answer: %d vs %d rows",
				f, base.Rows.Len(), restricted.Rows.Len())
			continue
		}
		for _, row := range base.Rows.Tuples() {
			if !restricted.Rows.Has(row) {
				t.Errorf("%v: row %v lost by restriction", f, row)
			}
		}
	}
}

func TestActiveDomainSyntaxMembership(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"F": 2})
	s := ActiveDomainSyntax{Scheme: scheme, Enum: FormulaEnumerator{Sig: Signature{
		Preds: map[string]int{"F": 2}, Vars: []string{"x", "y"},
	}}}
	member, err := s.Enumerate(17)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Contains(member)
	if err != nil || !ok {
		t.Errorf("enumerated member not contained: %v (%v)", member, err)
	}
	ok, err = s.Contains(logic.Not(logic.Atom("F", logic.Var("x"), logic.Var("y"))))
	if err != nil || ok {
		t.Errorf("raw complement should not be in the restricted class")
	}
	if s.Name() != "active-domain" {
		t.Errorf("name")
	}
}

func TestFinitizationSyntax(t *testing.T) {
	s := FinitizationSyntax{Enum: FormulaEnumerator{Sig: Signature{
		Preds:  map[string]int{"R": 1, presburger.PredLt: 2},
		Consts: []string{"0", "3"},
		Vars:   []string{"x", "y"},
	}}}
	for _, i := range []int{0, 5, 33} {
		member, err := s.Enumerate(i)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := s.Contains(member)
		if err != nil || !ok {
			t.Errorf("finitization member %d not contained: %v", i, member)
		}
	}
	ok, err := s.Contains(logic.Atom("R", logic.Var("x")))
	if err != nil || ok {
		t.Errorf("plain atom should not be a finitization")
	}
	if s.Name() != "finitization" {
		t.Errorf("name")
	}
}

// TestFinitizationSyntaxMembersFinite: enumerated members of the
// finitization syntax are finite in sample states (Theorem 2.2's first
// half, via the Theorem 2.5 decider).
func TestFinitizationSyntaxMembersFinite(t *testing.T) {
	s := FinitizationSyntax{Enum: FormulaEnumerator{Sig: Signature{
		Preds:  map[string]int{"R": 1},
		Consts: []string{"0", "3"},
		Vars:   []string{"x", "y"},
	}}}
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		member, err := s.Enumerate(i)
		if err != nil {
			t.Fatal(err)
		}
		finite, err := RelativeSafetyPresburger(st, member)
		if err != nil {
			t.Fatalf("member %d (%v): %v", i, member, err)
		}
		if !finite {
			t.Errorf("finitization member %d infinite: %v", i, member)
		}
	}
}

func TestSafeRangeSyntax(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"F": 2})
	s := SafeRangeSyntax{Scheme: scheme, Enum: FormulaEnumerator{Sig: Signature{
		Preds: map[string]int{"F": 2}, Vars: []string{"x", "y"},
	}}}
	for i := 0; i < 10; i++ {
		member, err := s.Enumerate(i)
		if err != nil {
			t.Fatalf("Enumerate(%d): %v", i, err)
		}
		ok, err := s.Contains(member)
		if err != nil || !ok {
			t.Errorf("member %d not safe-range: %v", i, member)
		}
	}
	ok, err := s.Contains(logic.Eq(logic.Var("x"), logic.Var("y")))
	if err != nil || ok {
		t.Errorf("x = y should not be safe-range")
	}
	if s.Name() != "safe-range" {
		t.Errorf("name")
	}
}

// TestNsuccRestrictor: Theorem 2.7's extended-active-domain restriction
// yields finite formulas over N', and preserves the answers of finite
// queries whose values stay within the radius.
func TestNsuccRestrictor(t *testing.T) {
	scheme := db.MustScheme(map[string]int{"R": 1})
	st := db.NewState(scheme)
	for _, n := range []int64{5, 9} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	x, y := logic.Var("x"), logic.Var("y")
	sApp := func(tm logic.Term) logic.Term { return logic.App("s", tm) }

	// An unsafe formula: its restriction must be finite.
	unsafe := logic.Not(logic.Atom("R", x))
	restricted := NsuccRestrictor(scheme, unsafe)
	finite, err := RelativeSafetyNsucc(st, restricted)
	if err != nil {
		t.Fatalf("RelativeSafetyNsucc: %v", err)
	}
	if !finite {
		t.Errorf("restriction of ¬R should be finite")
	}

	// A finite query with quantifier depth 1 and values within distance 2:
	// the successor-of-a-stored-value query. Restriction preserves answers.
	f := logic.Exists("y", logic.And(logic.Atom("R", y), logic.Eq(x, sApp(y))))
	rf := NsuccRestrictor(scheme, f)
	finite, err = RelativeSafetyNsucc(st, rf)
	if err != nil {
		t.Fatal(err)
	}
	if !finite {
		t.Errorf("restricted finite query reported infinite")
	}
	// Compare answers via enumeration.
	import1, err := query.EnumerationAnswer(nsucc.Domain{}, nsucc.Decider(), st, f, query.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	import2, err := query.EnumerationAnswer(nsucc.Domain{}, nsucc.Decider(), st, rf, query.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if import1.Rows.Len() != import2.Rows.Len() || import1.Rows.Len() != 2 {
		t.Fatalf("restriction changed answers: %v vs %v",
			import1.Rows.Tuples(), import2.Rows.Tuples())
	}
	for _, row := range import1.Rows.Tuples() {
		if !import2.Rows.Has(row) {
			t.Errorf("row %v lost", row)
		}
	}
}

// TestCorollary24OrderedExtension: any enumerable domain extends with an
// N<-order; the order is computable, total, and discrete-from-below, so the
// finitization syntax applies to the extension. Demonstrated on the
// equality domain and on the trace domain (Corollary 3.2's subject).
func TestCorollary24OrderedExtension(t *testing.T) {
	exts := []OrderedExtension{
		{Base: eqdom.Domain{}},
		{Base: traces.Domain{}},
	}
	for _, ext := range exts {
		a := ext.Element(0)
		b := ext.Element(5)
		lt1, err := ext.Pred(presburger.PredLt, []domain.Value{a, b})
		if err != nil {
			t.Fatalf("%s: lt: %v", ext.Name(), err)
		}
		lt2, err := ext.Pred(presburger.PredLt, []domain.Value{b, a})
		if err != nil {
			t.Fatal(err)
		}
		if !lt1 || lt2 {
			t.Errorf("%s: order wrong: %v %v", ext.Name(), lt1, lt2)
		}
		// Irreflexive.
		ltSelf, err := ext.Pred(presburger.PredLt, []domain.Value{a, a})
		if err != nil || ltSelf {
			t.Errorf("%s: order reflexive", ext.Name())
		}
		// IndexOf inverts Element.
		i, err := ext.IndexOf(ext.Element(9))
		if err != nil || i != 9 {
			t.Errorf("%s: IndexOf = %d, %v", ext.Name(), i, err)
		}
		// Base symbols still work.
		if ext.Name() == "traces+nless" {
			v, err := ext.Pred(traces.PredW, []domain.Value{domain.Word("1&")})
			if err != nil || !v {
				t.Errorf("base predicate lost: %v %v", v, err)
			}
		}
	}
	// The finitization of a formula over the extension is well-formed and
	// in the finitization class.
	f := logic.Atom(traces.PredW, logic.Var("x"))
	if _, ok := IsFinitization(Finitize(f)); !ok {
		t.Errorf("finitization over the extension malformed")
	}
}

// TestRelativeSafetyWordlexDirect exercises the shortlex relative-safety
// decider end to end (Theorem 2.5 carried across the isomorphism).
func TestRelativeSafetyWordlexDirect(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, w := range []string{"ab", "ba"} {
		if err := st.Insert("R", domain.Word(w)); err != nil {
			t.Fatal(err)
		}
	}
	finiteQ := logic.Exists("y", logic.And(
		logic.Atom("R", logic.Var("y")),
		logic.Atom(presburger.PredLt, logic.Var("x"), logic.Var("y"))))
	finite, err := RelativeSafetyWordlex(st, finiteQ)
	if err != nil {
		t.Fatalf("RelativeSafetyWordlex: %v", err)
	}
	if !finite {
		t.Errorf("words below a stored word are finitely many")
	}
	infinite, err := RelativeSafetyWordlex(st, logic.Not(logic.Atom("R", logic.Var("x"))))
	if err != nil {
		t.Fatal(err)
	}
	if infinite {
		t.Errorf("complement should be infinite")
	}
}

// TestOrderedExtensionInterp covers the delegating methods.
func TestOrderedExtensionInterp(t *testing.T) {
	ext := OrderedExtension{Base: eqdom.Domain{}}
	v, err := ext.ConstValue("k")
	if err != nil || v.Key() != "k" {
		t.Errorf("ConstValue: %v %v", v, err)
	}
	if ext.ConstName(domain.Word("k")) != "k" {
		t.Errorf("ConstName")
	}
	if _, err := ext.Func("f", nil); err == nil {
		t.Errorf("base has no functions")
	}
	if _, err := ext.Pred("P", nil); err == nil {
		t.Errorf("base has no predicates")
	}
	if _, err := ext.Pred(presburger.PredLt, []domain.Value{domain.Word("e0")}); err == nil {
		t.Errorf("lt arity unchecked")
	}
	// IndexOf failure within a tiny bound.
	small := OrderedExtension{Base: eqdom.Domain{}, MaxIndex: 3}
	if _, err := small.IndexOf(domain.Word("zz-not-enumerated")); err == nil {
		t.Errorf("IndexOf should fail beyond the bound")
	}
}
