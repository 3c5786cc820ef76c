package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/domains/eqdom"
	"repro/internal/parser"
)

// profileCounts renders the deterministic part of a profile: the
// assignment count and, per node in depth-first order, the dotted path,
// operator, Evals, True and Range. Wall times are left out.
func profileCounts(p *Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "assignments=%d rows=%d\n", p.Assignments, p.Rows)
	for _, n := range p.Flatten() {
		fmt.Fprintf(&b, "%s %s evals=%d true=%d range=%d\n", n.Path, n.Op, n.Evals, n.True, n.Range)
	}
	return b.String()
}

// TestProfileCountsGolden pins the profiled walker's per-node counts over
// the family state. Together the formulas use ∃, ∀, ¬, ∧, ∨, → and ↔,
// with short-circuiting in ∧, ∨, →, ∃ and ∀, so any change to the
// walker's branching or accounting order shows up as a count diff.
func TestProfileCountsGolden(t *testing.T) {
	st := familyState(t)
	cases := []struct {
		src, want string
	}{
		{
			src: `exists y. F(x, y) & forall z. (F(z, x) -> ~(z = x))`,
			want: `assignments=6 rows=3
0 ∧ evals=6 true=3 range=0
0.0 ∃y evals=6 true=3 range=6
0.0.0 F(x, y) evals=24 true=3 range=0
0.1 ∀z evals=3 true=3 range=6
0.1.0 → evals=18 true=18 range=0
0.1.0.0 F(z, x) evals=18 true=0 range=0
0.1.0.1 ¬ evals=0 true=0 range=0
0.1.0.1.0 z = x evals=0 true=0 range=0
`,
		},
		{
			src: `F(x, y) | (exists z. F(z, x) & ~F(x, z))`,
			want: `assignments=216 rows=132
0 ∨ evals=216 true=132 range=0
0.0 F(x, y) evals=216 true=24 range=0
0.1 ∧ evals=192 true=108 range=0
0.1.0 ∃z evals=192 true=108 range=6
0.1.0.0 F(z, x) evals=864 true=108 range=0
0.1.1 ¬ evals=108 true=108 range=0
0.1.1.0 F(x, z) evals=108 true=0 range=0
`,
		},
		{
			src: `(exists z. F(x, z)) <-> (exists z. F(z, x))`,
			want: `assignments=6 rows=0
0 ↔ evals=6 true=0 range=0
0.0 ∃z evals=6 true=3 range=6
0.0.0 F(x, z) evals=24 true=3 range=0
0.1 ∃z evals=6 true=3 range=6
0.1.0 F(z, x) evals=28 true=3 range=0
`,
		},
		{
			src: `forall y. (F(x, y) -> exists z. (F(z, y) & ~(z = x)))`,
			want: `assignments=6 rows=4
0 ∀y evals=6 true=4 range=6
0.0 → evals=31 true=29 range=0
0.0.0 F(x, y) evals=31 true=4 range=0
0.0.1 ∃z evals=4 true=2 range=6
0.0.1.0 ∧ evals=19 true=2 range=0
0.0.1.0.0 F(z, y) evals=19 true=5 range=0
0.0.1.0.1 ¬ evals=5 true=2 range=0
0.0.1.0.1.0 z = x evals=5 true=3 range=0
`,
		},
		{
			src: `exists x. forall y. (F(x, y) | ~F("adam", y))`,
			want: `assignments=1 rows=1
0 ∃x evals=1 true=1 range=6
0.0 ∀y evals=2 true=1 range=6
0.0.0 ∨ evals=7 true=6 range=0
0.0.0.0 F(x, y) evals=7 true=2 range=0
0.0.0.1 ¬ evals=5 true=4 range=0
0.0.0.1.0 F(adam, y) evals=5 true=1 range=0
`,
		},
	}
	for _, tc := range cases {
		f := parser.MustParse(tc.src)
		_, prof, err := EvalActiveProfiledCtx(context.Background(), eqdom.Domain{}, st, f)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := profileCounts(prof); got != tc.want {
			t.Errorf("%s: profile counts\n%s\nwant\n%s", tc.src, got, tc.want)
		}
	}
}
