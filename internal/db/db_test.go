package db

import (
	"strings"
	"testing"

	"repro/internal/domain"
)

func TestSchemeValidation(t *testing.T) {
	if _, err := NewScheme(map[string]int{"R": 0}); err == nil {
		t.Errorf("zero arity accepted")
	}
	s, err := NewScheme(map[string]int{"R": 2}, "c")
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	if !s.HasConstant("c") || s.HasConstant("d") {
		t.Errorf("HasConstant wrong")
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(2)
	if r.Arity() != 2 || r.Len() != 0 {
		t.Errorf("fresh relation wrong")
	}
	t1 := Tuple{domain.Int(1), domain.Int(2)}
	if err := r.Add(t1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := r.Add(Tuple{domain.Int(1)}); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if !r.Has(t1) || r.Has(Tuple{domain.Int(2), domain.Int(1)}) {
		t.Errorf("Has wrong")
	}
	// Duplicates collapse.
	if err := r.Add(Tuple{domain.Int(1), domain.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("duplicate not collapsed: %d", r.Len())
	}
	// Clone independence.
	c := r.Clone()
	if err := c.Add(Tuple{domain.Int(3), domain.Int(4)}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone shares storage")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Keys must not collide across different splits of the same bytes.
	a := Tuple{domain.Word("a,b"), domain.Word("c")}
	b := Tuple{domain.Word("a"), domain.Word("b,c")}
	if a.Key() == b.Key() {
		t.Errorf("tuple keys collide: %q", a.Key())
	}
	if a.String() != "(a,b, c)" {
		t.Errorf("String = %q", a.String())
	}
}

// TestTupleKeyGolden pins the key bytes. Relation.Tuples and
// algebra.Table.Rows sort rows by key, so the key's byte order is the row
// order of every answer: a change here reorders answers on the wire.
func TestTupleKeyGolden(t *testing.T) {
	cases := []struct {
		tuple Tuple
		want  string
	}{
		{Tuple{}, ""},
		{Tuple{domain.Int(0)}, "1:0"},
		{Tuple{domain.Int(7)}, "1:7"},
		{Tuple{domain.Int(150)}, "3:150"},
		{Tuple{domain.Int(-3)}, "2:-3"},
		{Tuple{domain.Int(12345678901)}, "11:12345678901"},
		{Tuple{domain.Int(-9223372036854775808)}, "20:-9223372036854775808"},
		{Tuple{domain.Word("")}, "0:"},
		{Tuple{domain.Word("a,b")}, "3:a,b"},
		{Tuple{domain.Word("x:y")}, "3:x:y"},
		{Tuple{domain.Word("⊤")}, "3:⊤"}, // the prefix counts bytes, not runes
		{Tuple{domain.Int(42), domain.Word("ab"), domain.Int(-7)}, "2:42,2:ab,2:-7"},
	}
	for _, c := range cases {
		if got := c.tuple.Key(); got != c.want {
			t.Errorf("%v.Key() = %q, want %q", c.tuple, got, c.want)
		}
		if got := string(c.tuple.AppendKey(nil)); got != c.want {
			t.Errorf("%v.AppendKey(nil) = %q, want %q", c.tuple, got, c.want)
		}
		// Appending keeps what dst already holds, whether the key fits
		// dst's spare capacity or forces a grow.
		for _, dst := range [][]byte{[]byte("pre|"), append(make([]byte, 0, 256), "pre|"...)} {
			if got := string(c.tuple.AppendKey(dst)); got != "pre|"+c.want {
				t.Errorf("%v.AppendKey(%q) = %q, want %q", c.tuple, dst, got, "pre|"+c.want)
			}
		}
	}
}

// TestHasAllocs: a membership probe builds its key on the stack and looks
// it up without allocating a key string.
func TestHasAllocs(t *testing.T) {
	r := NewRelation(2)
	probe := Tuple{domain.Int(123456), domain.Int(7)}
	if err := r.Add(probe); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !r.Has(probe) {
			t.Fatal("Has lost the row")
		}
	}); n != 0 {
		t.Errorf("Relation.Has allocates %v times per call, want 0", n)
	}
}

func TestStateBasics(t *testing.T) {
	scheme := MustScheme(map[string]int{"F": 2}, "c")
	st := NewState(scheme)
	if err := st.Insert("F", domain.Word("abel"), domain.Word("cain")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := st.Insert("G", domain.Word("x")); err == nil {
		t.Errorf("unknown relation accepted")
	}
	if err := st.SetConstant("c", domain.Word("adam")); err != nil {
		t.Fatalf("SetConstant: %v", err)
	}
	if err := st.SetConstant("d", domain.Word("x")); err == nil {
		t.Errorf("unknown constant accepted")
	}
	v, err := st.Constant("c")
	if err != nil || v.Key() != "adam" {
		t.Errorf("Constant: %v %v", v, err)
	}
	ad := st.ActiveDomain()
	if len(ad) != 3 {
		t.Fatalf("active domain size %d, want 3", len(ad))
	}
	// Sorted by key: abel, adam, cain.
	if ad[0].Key() != "abel" || ad[1].Key() != "adam" || ad[2].Key() != "cain" {
		t.Errorf("active domain order: %v", ad)
	}
	if !strings.Contains(st.String(), "c = adam") {
		t.Errorf("String missing constant: %q", st.String())
	}
	// Clone independence.
	c2 := st.Clone()
	if err := c2.Insert("F", domain.Word("x"), domain.Word("y")); err != nil {
		t.Fatal(err)
	}
	r, _ := st.Relation("F")
	if r.Len() != 1 {
		t.Errorf("clone shares relations")
	}
}

func TestConstantUnset(t *testing.T) {
	st := NewState(MustScheme(map[string]int{"R": 1}, "c"))
	if _, err := st.Constant("c"); err == nil {
		t.Errorf("unset constant readable")
	}
}
