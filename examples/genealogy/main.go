// Genealogy over the ordered naturals: the Section 2 positive story. A
// birth-year registry is stored over ℕ with < (a decidable extension — full
// Presburger arithmetic — powers the deciders). The example reproduces
// Fact 2.1's finite-but-not-domain-independent query, runs the Theorem 2.2
// finitization, and decides relative safety per Theorem 2.5, answering the
// finite queries with the §1.1 enumeration algorithm.
package main

import (
	"context"
	"fmt"
	"log"

	finq "repro"
)

func main() {
	d := finq.MustLookup("presburger")
	scheme := finq.MustScheme(map[string]int{"Born": 1})
	st := finq.NewState(scheme)
	for _, year := range []int64{2, 5} {
		if err := st.Insert("Born", finq.Nat(year)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(st)

	// Fact 2.1: the smallest number greater than every stored year.
	// ∀y (Born(y) → y < x) ∧ ∀y (y < x → ∃z (Born(z) ∧ ¬(z < y))).
	fact21, err := d.Parse(
		"(forall y. (Born(y) -> lt(y, x))) & (forall y. (lt(y, x) -> (exists z. (Born(z) & ~lt(z, y)))))")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFact 2.1 query:", fact21)
	v, err := finq.RelativeSafety(d, st, fact21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("relative safety (Theorem 2.5 decider):", v)
	ans := enumerate(d, st, fact21)
	fmt.Printf("answer by §1.1 enumeration: %v (complete=%v) — outside the active domain {2,5},\n", ans.Rows.Tuples(), ans.Complete)
	fmt.Println("so the query is finite but not domain-independent")

	// Theorem 2.2: the finitization of an unsafe query is finite.
	unsafe, err := d.Parse("~Born(x)")
	if err != nil {
		log.Fatal(err)
	}
	fin := finq.Finitize(unsafe)
	fmt.Println("\n~Born(x) finitized:", fin)
	v, err = finq.RelativeSafety(d, st, unsafe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ~Born(x) relative safety:", v)
	v, err = finq.RelativeSafety(d, st, fin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  finitization relative safety:", v, "(every finitization is finite — Theorem 2.2)")

	// A finite query is equivalent to its finitization: "years before the
	// latest recorded birth".
	early, err := d.Parse("exists y. (Born(y) & lt(x, y))")
	if err != nil {
		log.Fatal(err)
	}
	ans = enumerate(d, st, early)
	fmt.Printf("\nyears before the latest birth: %v\n", ans.Rows.Tuples())
	ansFin := enumerate(d, st, finq.Finitize(early))
	fmt.Printf("same query finitized:          %v (identical — the finitization of a finite query is equivalent to it)\n",
		ansFin.Rows.Tuples())
}

// enumerate answers f by the §1.1 enumeration algorithm under the default
// budget.
func enumerate(d finq.DomainInfo, st *finq.State, f *finq.Formula) *finq.Answer {
	res, err := finq.Eval(context.Background(), finq.Request{
		Domain: d.Name, State: st, Formula: f, Mode: finq.ModeEnumerate,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Answer
}
