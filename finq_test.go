package finq

import (
	"context"
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	names := []string{"eq", "nless", "presburger", "zless", "nsucc", "wordlex", "traces"}
	if len(Domains()) != len(names) {
		t.Fatalf("expected %d domains", len(names))
	}
	for _, n := range names {
		d, err := Lookup(n)
		if err != nil || d.Name != n {
			t.Errorf("Lookup(%q): %v %v", n, d.Name, err)
		}
		if d.Domain == nil || d.Decider == nil || d.Eliminator == nil {
			t.Errorf("domain %q missing capabilities", n)
		}
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Errorf("unknown domain accepted")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	d := MustLookup("eq")
	scheme := MustScheme(map[string]int{"F": 2})
	st := NewState(scheme)
	if err := st.Insert("F", Word("adam"), Word("abel")); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("F", Word("adam"), Word("cain")); err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("exists y. F(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Rows.Len() != 1 {
		t.Errorf("fathers = %d, want 1", res.Answer.Rows.Len())
	}
	v, err := RelativeSafety(d, st, f)
	if err != nil || v != Holds {
		t.Errorf("RelativeSafety = %v, %v", v, err)
	}
	report := SafeRange(scheme, f)
	if !report.Safe {
		t.Errorf("safe-range analysis failed")
	}
}

func TestFacadeEnumerate(t *testing.T) {
	d := MustLookup("presburger")
	st := NewState(MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", Nat(3)); err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("exists y. (R(y) & lt(x, y))")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f, Mode: ModeEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	if ans := res.Answer; !ans.Complete || ans.Rows.Len() != 3 {
		t.Errorf("enumeration: %d rows, complete=%v", ans.Rows.Len(), ans.Complete)
	}
}

func TestFacadeDecideAndEliminate(t *testing.T) {
	d := MustLookup("nsucc")
	f, err := d.Parse("exists x. s(x) = 3")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Decide(d, f)
	if err != nil || !v {
		t.Errorf("Decide: %v %v", v, err)
	}
	g, err := Eliminate(d, f)
	if err != nil || !g.QuantifierFree() {
		t.Errorf("Eliminate: %v %v", g, err)
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	d := MustLookup("traces")
	data := []byte(`{
		"relations": {"Runs": [["*", "1"], ["*", "1&"]]},
		"constants": {"c": "11"}
	}`)
	st, err := ParseState(d, data)
	if err != nil {
		t.Fatalf("ParseState: %v", err)
	}
	rel, err := st.Relation("Runs")
	if err != nil || rel.Len() != 2 || rel.Arity() != 2 {
		t.Fatalf("relation wrong: %v %v", rel, err)
	}
	v, err := st.Constant("c")
	if err != nil || v.Key() != "11" {
		t.Fatalf("constant wrong: %v %v", v, err)
	}
	out, err := MarshalState(d, st)
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	st2, err := ParseState(d, out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	rel2, _ := st2.Relation("Runs")
	if rel2.Len() != 2 {
		t.Errorf("round trip lost rows")
	}
}

func TestStateJSONErrors(t *testing.T) {
	d := MustLookup("presburger")
	bad := []string{
		`{`,
		`{"relations": {"R": []}}`, // arity unknown
		`{"relations": {"R": [["1"], ["1","2"]]}}`,     // ragged
		`{"relations": {"R": [["x"]]}}`,                // bad numeral
		`{"constants": {"c": "abc"}, "relations": {}}`, // bad constant value
	}
	for _, src := range bad {
		if _, err := ParseState(d, []byte(src)); err == nil {
			t.Errorf("ParseState(%s) accepted", src)
		}
	}
}

func TestFacadeTraces(t *testing.T) {
	// The Theorem 3.1/3.3 surface.
	f, st, err := HaltingToRelativeSafety("*", "1")
	if err != nil {
		t.Fatal(err)
	}
	d := MustLookup("traces")
	v, err := RelativeSafety(d, st, f)
	if err != nil || v != Holds {
		t.Errorf("zero-rule machine halts: %v %v", v, err)
	}
	q := TotalityQuery("*")
	if !strings.Contains(q.String(), "P(") {
		t.Errorf("totality query shape: %v", q)
	}
	cand, err := d.ParseWithConstants(`T(x) & m(x) = "*" & w(x) = c`, "c")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := VerifyTotality("*", cand)
	if err != nil || !ok {
		t.Errorf("VerifyTotality: %v %v", ok, err)
	}
	if TotalityScheme() == nil {
		t.Errorf("scheme nil")
	}
}

func TestFinitizeFacade(t *testing.T) {
	d := MustLookup("presburger")
	f, err := d.Parse("~R(x)")
	if err != nil {
		t.Fatal(err)
	}
	g := Finitize(f)
	if g.Equal(f) {
		t.Errorf("finitization should extend the formula")
	}
	st := NewState(MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", Nat(1)); err != nil {
		t.Fatal(err)
	}
	v, err := RelativeSafety(d, st, g)
	if err != nil || v != Holds {
		t.Errorf("finitization not finite: %v %v", v, err)
	}
}
