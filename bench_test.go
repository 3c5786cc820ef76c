// Benchmarks, one family per experiment in DESIGN.md §3. The paper has no
// tables or figures — it is a theory paper — so the benchmark harness
// regenerates the experiment index E1–E10 instead: each family drives the
// algorithm that makes the corresponding theorem executable, with input
// sizes swept so EXPERIMENTS.md can report scaling shapes.
package finq

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/autarith"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/nsucc"
	"repro/internal/logic"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/traces"
	"repro/internal/turing"
)

// --- E1: §1.1 enumeration algorithm -------------------------------------

func natStateB(b *testing.B, values ...int64) *db.State {
	b.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, v := range values {
		if err := st.Insert("R", domain.Int(v)); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkE1Enumeration answers "numbers below the largest stored value"
// with answer sizes 4, 16, and 64 — the cost is dominated by one decision
// per produced row plus one per candidate probe.
func BenchmarkE1Enumeration(b *testing.B) {
	for _, n := range []int64{4, 16, 64} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			st := natStateB(b, n)
			f := logic.Exists("y", logic.And(
				logic.Atom("R", logic.Var("y")),
				logic.Atom(presburger.PredLt, logic.Var("x"), logic.Var("y"))))
			budget := query.EnumerationBudget{Rows: int(n) + 10, Probe: 1 << 16}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ans, err := query.EnumerationAnswer(presburger.Domain{}, presburger.Decider(), st, f, budget)
				if err != nil || !ans.Complete || ans.Rows.Len() != int(n) {
					b.Fatalf("bad answer: %v %v", ans, err)
				}
			}
		})
	}
}

// --- E3: Theorem 2.2 finitization ----------------------------------------

// BenchmarkE3Finitization builds the finitization and decides that it is
// finite (the Theorem 2.5 equivalence check), for queries with 1–3 free
// variables.
func BenchmarkE3Finitization(b *testing.B) {
	st := natStateB(b, 3, 7)
	vars := []string{"x", "y", "z"}
	for k := 1; k <= 3; k++ {
		b.Run(fmt.Sprintf("freevars=%d", k), func(b *testing.B) {
			conj := make([]*logic.Formula, k)
			for i := 0; i < k; i++ {
				conj[i] = logic.Atom("R", logic.Var(vars[i]))
			}
			f := logic.And(conj...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fin := core.Finitize(f)
				finite, err := core.RelativeSafetyPresburger(st, fin)
				if err != nil || !finite {
					b.Fatalf("finitization not finite: %v", err)
				}
			}
		})
	}
}

// --- E4: Theorem 2.5 relative safety over N< extensions ------------------

func BenchmarkE4RelSafetyPresburger(b *testing.B) {
	st := natStateB(b, 1, 4, 9)
	x, y := logic.Var("x"), logic.Var("y")
	cases := []struct {
		name string
		f    *logic.Formula
	}{
		{"finite", logic.And(logic.Atom("R", x),
			logic.Atom(presburger.PredLt, x, logic.Const("7")))},
		{"infinite", logic.Not(logic.Atom("R", x))},
		{"join", logic.And(logic.Atom("R", x), logic.Atom("R", y),
			logic.Atom(presburger.PredLt, x, y))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RelativeSafetyPresburger(st, c.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: Theorems 2.6/2.7, the successor domain --------------------------

func BenchmarkE5NsuccQE(b *testing.B) {
	s := func(t logic.Term) logic.Term { return logic.App(nsucc.FuncS, t) }
	for depth := 1; depth <= 3; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			// ∃x1 … ∃xd (x1' = x2 ∧ … ∧ xd'' = y): chained eliminations.
			body := logic.Eq(s(s(logic.Var("v"+strconv.Itoa(depth-1)))), logic.Var("y"))
			f := body
			for i := depth - 1; i >= 0; i-- {
				name := "v" + strconv.Itoa(i)
				if i > 0 {
					f = logic.And(logic.Eq(s(logic.Var("v"+strconv.Itoa(i-1))), logic.Var(name)), f)
				}
				f = logic.Exists(name, f)
			}
			e := nsucc.Eliminator{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := e.Eliminate(f)
				if err != nil || !g.QuantifierFree() {
					b.Fatalf("elimination failed: %v %v", g, err)
				}
			}
		})
	}
}

func BenchmarkE5NsuccRelSafety(b *testing.B) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, v := range []int64{3, 10, 17} {
		if err := st.Insert("R", domain.Int(v)); err != nil {
			b.Fatal(err)
		}
	}
	f := logic.Exists("y", logic.And(
		logic.Atom("R", logic.Var("y")),
		logic.Eq(logic.App(nsucc.FuncS, logic.Var("x")), logic.Var("y"))))
	for i := 0; i < b.N; i++ {
		finite, err := core.RelativeSafetyNsucc(st, f)
		if err != nil || !finite {
			b.Fatal(err)
		}
	}
}

// --- E6: Lemma A.2 --------------------------------------------------------

func BenchmarkE6LemmaA2(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("constraints=%d", k), func(b *testing.B) {
			// Half E_4 constraints on distinct length-4 words (same count,
			// same prefix length: always jointly satisfiable), half D_2
			// constraints (2 ≤ 4, so never in conflict with the E's).
			var sys traces.System
			for i := 0; i < k; i++ {
				word := ""
				for bit := 0; bit < 4; bit++ {
					if (i>>bit)&1 == 1 {
						word += "1"
					} else {
						word += "&"
					}
				}
				if i%2 == 0 {
					sys = append(sys, traces.Constraint{Exact: true, Count: 4, Word: word})
				} else {
					sys = append(sys, traces.Constraint{Count: 2, Word: word})
				}
			}
			if ok, conflict := sys.Satisfiable(); !ok {
				b.Fatalf("benchmark system unsatisfiable: %v", conflict)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := sys.Witness()
				if err != nil {
					b.Fatal(err)
				}
				holds, err := sys.Check(turing.Encode(m))
				if err != nil || !holds {
					b.Fatalf("witness check failed: %v", err)
				}
			}
		})
	}
}

// --- E7: Theorem A.3 / Corollary A.4 — trace theory QE --------------------

func BenchmarkE7TraceQE(b *testing.B) {
	busy := turing.Encode(turing.BusyWork(1))
	x := logic.Var("x")
	cases := []struct {
		name string
		f    *logic.Formula
	}{
		{"sorts", logic.Forall("x", logic.Or(
			logic.Atom(traces.PredM, x), logic.Atom(traces.PredW, x),
			logic.Atom(traces.PredT, x), logic.Atom(traces.PredO, x)))},
		{"lemmaA2", logic.Exists("x", logic.And(
			logic.Atom(traces.PredM, x),
			logic.Atom("E2", x, logic.Const("11")),
			logic.Atom("D3", x, logic.Const("1&"))))},
		{"counting", logic.Exists("x", logic.And(
			logic.Atom(traces.PredP, logic.Const(busy), logic.Const("1"), x),
			logic.Neq(x, logic.Const("11"))))},
		{"nested", logic.Forall("x", logic.Implies(logic.Atom(traces.PredM, x),
			logic.Exists("p", logic.And(logic.Atom(traces.PredT, logic.Var("p")),
				logic.Eq(logic.App(traces.FuncM, logic.Var("p")), x)))))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh decider (and thus fresh decision cache) per
				// iteration: a shared one would reduce every iteration after
				// the first to a cache hit and benchmark the map, not QE.
				dec := traces.Decider()
				if _, err := dec.Decide(c.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: Theorem 3.1 — totality verification ------------------------------

func BenchmarkE8Totality(b *testing.B) {
	busy := turing.Encode(turing.BusyWork(1))
	candidate := logic.And(
		logic.Atom(traces.PredT, logic.Var("x")),
		logic.Eq(logic.App(traces.FuncM, logic.Var("x")), logic.Const(busy)),
		logic.Eq(logic.App(traces.FuncW, logic.Var("x")), logic.Const(core.DBConst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := core.VerifyTotality(busy, candidate)
		if err != nil || !ok {
			b.Fatalf("verification failed: %v", err)
		}
	}
}

// --- E9: Theorem 3.3 — halting reduction ----------------------------------

func BenchmarkE9HaltingReduction(b *testing.B) {
	cases := []struct {
		name    string
		machine string
		input   string
		want    domain.Verdict
	}{
		{"halts", turing.Encode(turing.BusyWork(3)), "1", domain.Holds},
		{"diverges", turing.Encode(turing.LoopForever()), "1", domain.Fails},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, st, err := core.HaltingToRelativeSafety(c.machine, c.input)
				if err != nil {
					b.Fatal(err)
				}
				v, err := core.RelativeSafetyTraces(st, f, core.DefaultTracesBudget)
				if err != nil || v != c.want {
					b.Fatalf("verdict %v, err %v", v, err)
				}
			}
		})
	}
}

// --- Substrate benchmarks --------------------------------------------------

// BenchmarkEngines compares the two independent Presburger decision
// procedures — Cooper's elimination and the automata-theoretic method — on
// the same sentence family.
func BenchmarkEngines(b *testing.B) {
	x, y := logic.Var("x"), logic.Var("y")
	sentences := map[string]*logic.Formula{
		"order": logic.Forall("x", logic.Exists("y",
			logic.Atom(presburger.PredLt, x, y))),
		"parity": logic.Forall("x", logic.Or(
			logic.Atom(presburger.PredDvd, logic.Const("2"), x),
			logic.Atom(presburger.PredDvd, logic.Const("2"),
				logic.App(presburger.FuncAdd, x, logic.Const("1"))))),
		"linear": logic.ExistsAll([]string{"x", "y"}, logic.And(
			logic.Eq(logic.App(presburger.FuncAdd, x, y), logic.Const("9")),
			logic.Atom(presburger.PredLt, x, y))),
	}
	for name, f := range sentences {
		b.Run("cooper/"+name, func(b *testing.B) {
			e := presburger.Eliminator{}
			for i := 0; i < b.N; i++ {
				if _, err := e.Decide(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("automata/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := autarith.Decide(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCooperQE sweeps quantifier depth in Presburger sentences.
func BenchmarkCooperQE(b *testing.B) {
	for depth := 1; depth <= 3; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			vars := []string{"x", "y", "z"}[:depth]
			var f *logic.Formula = logic.Atom(presburger.PredLt,
				logic.Var(vars[depth-1]), logic.Const("20"))
			for i := depth - 1; i >= 0; i-- {
				if i > 0 {
					f = logic.And(logic.Atom(presburger.PredLt, logic.Var(vars[i-1]), logic.Var(vars[i])), f)
				}
				f = logic.Exists(vars[i], f)
			}
			e := presburger.Eliminator{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Decide(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations ---------------------------------------------------------
//
// DESIGN.md calls out two design choices inside the eliminators; the
// ablation benchmarks measure what each buys.

// BenchmarkAblationTraceSimplify compares the trace-theory eliminator with
// and without intermediate propositional simplification. Without it, dead
// sort branches and duplicate literals survive into the next DNF.
func BenchmarkAblationTraceSimplify(b *testing.B) {
	// An ↔ sentence: expanding ↔ duplicates subformulas, and without
	// intermediate simplification the duplicated dead branches multiply
	// through the per-sort DNFs of two nested eliminations. Even one more
	// conjoined ↔ makes the ablated variant run for *minutes* (measured >11
	// min) while the simplified pipeline stays in microseconds — simplify is
	// what keeps the appendix's "finite (although big) disjunction" small
	// in practice.
	x, y := logic.Var("x"), logic.Var("y")
	inner := logic.Iff(logic.Atom(traces.PredM, x), logic.Atom(traces.PredM, y))
	f := logic.Forall("x", logic.Exists("y", logic.And(inner, logic.Neq(x, y))))
	for _, ablated := range []bool{false, true} {
		name := "with-simplify"
		if ablated {
			name = "no-simplify"
		}
		b.Run(name, func(b *testing.B) {
			e := traces.Eliminator{NoIntermediateSimplify: ablated}
			for i := 0; i < b.N; i++ {
				g, err := e.Eliminate(f)
				if err != nil {
					b.Fatal(err)
				}
				_ = g
			}
		})
	}
}

// BenchmarkAblationCooperDedup compares Cooper's algorithm with and without
// boundary-set deduplication on a formula whose bounds repeat.
func BenchmarkAblationCooperDedup(b *testing.B) {
	x, y := logic.Var("x"), logic.Var("y")
	// Three syntactically repeated lower bounds y < x.
	body := logic.And(
		logic.Atom(presburger.PredLt, y, x),
		logic.Atom(presburger.PredLt, y, x),
		logic.Atom(presburger.PredLt, y, x),
		logic.Atom(presburger.PredLt, x, logic.Const("50")))
	f := logic.Forall("y", logic.Implies(
		logic.Atom(presburger.PredLt, y, logic.Const("10")),
		logic.Exists("x", body)))
	for _, ablated := range []bool{false, true} {
		name := "with-dedup"
		if ablated {
			name = "no-dedup"
		}
		b.Run(name, func(b *testing.B) {
			e := presburger.Eliminator{NoBoundDedup: ablated}
			for i := 0; i < b.N; i++ {
				v, err := e.Decide(f)
				if err != nil || !v {
					b.Fatalf("decide: %v %v", v, err)
				}
			}
		})
	}
}

// BenchmarkTuringSimulation measures raw machine stepping.
func BenchmarkTuringSimulation(b *testing.B) {
	m := turing.LoopForever()
	for _, steps := range []int{100, 10000} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := turing.Run(m, "1&1", steps)
				if r.Halted {
					b.Fatal("loop halted")
				}
			}
		})
	}
}

// BenchmarkTraceValidation measures P's recursiveness (Fact A.1): trace
// parsing and regeneration.
func BenchmarkTraceValidation(b *testing.B) {
	m := turing.BusyWork(8)
	enc := turing.Encode(m)
	tr, err := turing.Trace(m, enc, "1&1", 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !turing.IsTraceWord(tr) {
			b.Fatal("validation failed")
		}
	}
}

// BenchmarkEvalActive measures active-domain evaluation on the grandfather
// join with growing relations.
func BenchmarkEvalActive(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
			for i := 0; i < n; i++ {
				if err := st.Insert("F", domain.Int(int64(i)), domain.Int(int64(i+1))); err != nil {
					b.Fatal(err)
				}
			}
			f := logic.Exists("y", logic.And(
				logic.Atom("F", logic.Var("x"), logic.Var("y")),
				logic.Atom("F", logic.Var("y"), logic.Var("z"))))
			d := presburger.Domain{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ans, err := query.EvalActiveCtx(context.Background(), d, st, f)
				if err != nil || ans.Rows.Len() != n-1 {
					b.Fatalf("bad answer: %v %v", ans.Rows.Len(), err)
				}
			}
		})
	}
}
