// Enumeration-performance benchmark: the E1 workload through three
// evaluators — the pre-optimization enumeration loop (kept here as a
// faithful reimplementation), the current loop with the decision cache
// disabled, and the current loop with the cache on. `make bench-perf` runs
// TestWriteBenchPerf, which measures all three and writes BENCH_perf.json;
// the acceptance bar is cached ≥ 2× the uncached rows/sec.
package finq

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/db"
	"repro/internal/deccache"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/presburger"
	"repro/internal/query"
)

// perfBenchRows is the E1 answer size used for the measurement: large
// enough that the quadratic effects dominate, small enough that the legacy
// variant still finishes in benchmark time.
const perfBenchRows = 32

// perfBenchStride spaces the answers out: only every fourth natural
// satisfies the query, so each row's probe scan passes (and decides) the
// failing candidates between the previous answers again. Those repeated
// ground decisions are the §1.1 hot path the cache memoizes; a dense
// answer set (every candidate satisfies) would have nothing to re-decide.
const perfBenchStride = 4

func perfBenchWorkload(tb testing.TB) (*db.State, *logic.Formula) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for i := 0; i < perfBenchRows; i++ {
		if err := st.Insert("R", domain.Int(int64(i*perfBenchStride))); err != nil {
			tb.Fatal(err)
		}
	}
	// φ(x): ∃y (R(y) ∧ x = y) — membership in the sparse stored set.
	f := logic.Exists("y", logic.And(
		logic.Atom("R", logic.Var("y")),
		logic.Eq(logic.Var("x"), logic.Var("y"))))
	return st, f
}

func perfBenchBudget() query.EnumerationBudget {
	return query.EnumerationBudget{Rows: perfBenchRows + 10, Probe: 1 << 16}
}

// runPerfBench measures one variant. Each iteration constructs its decider
// from scratch, so the cached variant measures within-run memoization (the
// re-probed prefix of each row's candidate scan), never hits carried over
// from a previous iteration.
func runPerfBench(b *testing.B, dec func() domain.Decider,
	eval func(domain.Decider, *db.State, *logic.Formula) (*query.Answer, error)) {
	// The plan-caching compiler short-circuits the ground decisions this
	// benchmark exists to measure (its own speedup is bench-compile's
	// subject), so pin it off: this bench compares the interpreted
	// incremental loop with the decision cache off and on.
	prevPlan := plan.SetEnabled(false)
	defer plan.SetEnabled(prevPlan)
	st, f := perfBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := eval(dec(), st, f)
		if err != nil || !ans.Complete || ans.Rows.Len() != perfBenchRows {
			b.Fatalf("bad answer: %v %v", ans, err)
		}
	}
}

func evalCurrent(dec domain.Decider, st *db.State, f *logic.Formula) (*query.Answer, error) {
	return query.EnumerationAnswer(presburger.Domain{}, dec, st, f, perfBenchBudget())
}

func BenchmarkEnumPerfLegacy(b *testing.B) {
	prev := deccache.SetEnabled(false)
	defer deccache.SetEnabled(prev)
	runPerfBench(b, presburger.Decider, legacyEnumerationAnswer)
}

func BenchmarkEnumPerfNoCache(b *testing.B) {
	prev := deccache.SetEnabled(false)
	defer deccache.SetEnabled(prev)
	runPerfBench(b, presburger.Decider, evalCurrent)
}

func BenchmarkEnumPerfCached(b *testing.B) {
	prev := deccache.SetEnabled(true)
	defer deccache.SetEnabled(prev)
	runPerfBench(b, presburger.Decider, evalCurrent)
}

// TestWriteBenchPerf measures the three variants and writes
// BENCH_perf.json. Gated behind BENCH_PERF=1 (the `make bench-perf`
// target) so plain `go test` stays fast and does not rewrite the
// checked-in measurement.
func TestWriteBenchPerf(t *testing.T) {
	if os.Getenv("BENCH_PERF") == "" {
		t.Skip("set BENCH_PERF=1 (or run `make bench-perf`) to write BENCH_perf.json")
	}
	// Interleave the variants over several rounds and keep each variant's
	// fastest run — the minimum is the least-noise estimate, and
	// interleaving cancels drift between variants.
	const rounds = 3
	ns := map[string]int64{}
	allocs := map[string]int64{}
	for r := 0; r < rounds; r++ {
		for name, bench := range map[string]func(*testing.B){
			"legacy":  BenchmarkEnumPerfLegacy,
			"nocache": BenchmarkEnumPerfNoCache,
			"cached":  BenchmarkEnumPerfCached,
		} {
			res := testing.Benchmark(bench)
			if ns[name] == 0 || res.NsPerOp() < ns[name] {
				ns[name] = res.NsPerOp()
			}
			// Allocation counts are deterministic per variant (unlike wall
			// clock); keep the minimum all the same in case a round's first
			// iteration pays one-time warmup allocations.
			if allocs[name] == 0 || res.AllocsPerOp() < allocs[name] {
				allocs[name] = res.AllocsPerOp()
			}
		}
	}
	rowsPerSec := func(name string) float64 {
		return float64(perfBenchRows) / (float64(ns[name]) / 1e9)
	}

	// One instrumented pass for the cache hit rate of a single E1 run,
	// on the same interpreted path as the timed variants (planner off).
	prevPlan := plan.SetEnabled(false)
	prev := deccache.SetEnabled(true)
	st, f := perfBenchWorkload(t)
	dec := presburger.Decider()
	if _, err := evalCurrent(dec, st, f); err != nil {
		t.Fatal(err)
	}
	deccache.SetEnabled(prev)
	plan.SetEnabled(prevPlan)
	hits, misses, _, _ := dec.(*deccache.Cache).Stats()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses) * 100
	}

	// allocBudget is the hot-path allocation-discipline bar: it runs on
	// the default production configuration (plan-caching compiler on,
	// decision cache on — the path finqd actually serves), where the
	// cached E1 enumeration sits around 537 allocs/op (single-pass
	// algebra-tier replay, append-built tuple keys); the bar leaves room
	// for ~460 more. Allocation counts are deterministic, so any
	// instrumentation added to the eval hot path (per-span identity
	// minting included) that allocates per candidate or per span shows up
	// here as a hard CI failure, not as timing noise. The interpreted
	// variants above are reported for information only — that baseline is
	// allocation-heavy by design (per-candidate formula substitution).
	const allocBudget = 1_000
	defaultRes := testing.Benchmark(func(b *testing.B) {
		prevC := deccache.SetEnabled(true)
		defer deccache.SetEnabled(prevC)
		st, f := perfBenchWorkload(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ans, err := evalCurrent(presburger.Decider(), st, f)
			if err != nil || !ans.Complete || ans.Rows.Len() != perfBenchRows {
				b.Fatalf("bad answer: %v %v", ans, err)
			}
		}
	})
	allocsDefault := defaultRes.AllocsPerOp()

	speedupCached := float64(ns["nocache"]) / float64(ns["cached"])
	speedupTotal := float64(ns["legacy"]) / float64(ns["cached"])
	out := map[string]any{
		"benchmark":                 fmt.Sprintf("query.EnumerationAnswer, E1 workload (%d rows over N with Presburger QE)", perfBenchRows),
		"rows":                      perfBenchRows,
		"rounds":                    rounds,
		"ns_per_op_legacy":          ns["legacy"],
		"ns_per_op_nocache":         ns["nocache"],
		"ns_per_op_cached":          ns["cached"],
		"rows_per_sec_legacy":       rowsPerSec("legacy"),
		"rows_per_sec_nocache":      rowsPerSec("nocache"),
		"rows_per_sec_cached":       rowsPerSec("cached"),
		"allocs_per_op_legacy":      allocs["legacy"],
		"allocs_per_op_nocache":     allocs["nocache"],
		"allocs_per_op_cached":      allocs["cached"],
		"allocs_per_op_default":     allocsDefault,
		"ns_per_op_default":         defaultRes.NsPerOp(),
		"allocs_per_op_budget":      allocBudget,
		"speedup_cached_vs_nocache": speedupCached,
		"speedup_total_vs_legacy":   speedupTotal,
		"cache_hit_rate_pct":        hitRate,
		"note":                      "min ns/op over interleaved rounds, plan-caching compiler pinned off for legacy/nocache/cached (it bypasses the ground decisions this bench measures; bench-compile covers it); legacy = pre-optimization loop (exclusion conjunction rebuilt per row, probes decide the excluded formula, from-scratch tuple indexing); nocache = incremental loop, decision cache off; cached = incremental loop plus memoized decider (fresh cache per iteration); default = production configuration (plan compiler + decision cache on). Bars: cached >= 2x nocache rows/sec, default allocs/op within the allocation budget",
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_perf.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("BENCH_perf.json: legacy %d ns/op, nocache %d ns/op, cached %d ns/op (%.2fx vs nocache, %.2fx vs legacy, hit rate %.1f%%), default %d ns/op %d allocs/op\n",
		ns["legacy"], ns["nocache"], ns["cached"], speedupCached, speedupTotal, hitRate, defaultRes.NsPerOp(), allocsDefault)
	if speedupCached < 2.0 {
		t.Errorf("cache + incremental enumeration speedup %.2fx below the 2x acceptance bar", speedupCached)
	}
	if allocsDefault > allocBudget {
		t.Errorf("default-path enumeration allocates %d allocs/op, over the %d budget — the eval hot path grew per-candidate allocations",
			allocsDefault, allocBudget)
	}
}

// legacyEnumerationAnswer reimplements the enumeration loop as it stood
// before the incremental rework, as the benchmark baseline: the exclusion
// conjunction is rebuilt from φ' on every iteration, the probe scan
// decides the full excluded formula for every candidate (found rows
// included), and candidate tuples come from the from-scratch index
// decoder. Answers are identical to the optimized loop; only the cost
// structure differs.
func legacyEnumerationAnswer(dec domain.Decider, st *db.State, f *logic.Formula) (*query.Answer, error) {
	dom := presburger.Domain{}
	budget := perfBenchBudget()
	pure, err := query.Translate(dom, st, f)
	if err != nil {
		return nil, err
	}
	vars := pure.FreeVars()
	ans := &query.Answer{Vars: vars, Rows: db.NewRelation(len(vars)), Complete: false}
	var found []db.Tuple
	for len(found) < budget.Rows {
		remaining := pure
		for _, row := range found {
			var eqs []*logic.Formula
			for i, name := range vars {
				eqs = append(eqs, logic.Eq(logic.Var(name), logic.Const(dom.ConstName(row[i]))))
			}
			remaining = logic.And(remaining, logic.Not(logic.And(eqs...)))
		}
		more, err := dec.Decide(logic.ExistsAll(vars, remaining))
		if err != nil {
			return nil, err
		}
		if !more {
			ans.Complete = true
			return ans, nil
		}
		row, err := legacyNextRow(dom, dec, remaining, vars, budget.Probe)
		if err != nil {
			return nil, err
		}
		if row == nil {
			return ans, nil
		}
		found = append(found, row)
		if err := ans.Rows.Add(row); err != nil {
			return nil, err
		}
	}
	return ans, nil
}

func legacyNextRow(dom presburger.Domain, dec domain.Decider, pure *logic.Formula,
	vars []string, probe int) (db.Tuple, error) {

	k := len(vars)
	for i := 0; i < probe; i++ {
		idx := legacyTupleIndices(k, i)
		tuple := make(db.Tuple, k)
		ground := pure
		for j, name := range vars {
			v := dom.Element(idx[j])
			tuple[j] = v
			ground = logic.Subst(ground, name, logic.Const(dom.ConstName(v)))
		}
		ok, err := dec.Decide(ground)
		if err != nil {
			return nil, err
		}
		if ok {
			return tuple, nil
		}
	}
	return nil, nil
}

// legacyTupleIndices is the from-scratch ℕ^k index decoder the optimized
// loop replaced with a stateful generator (a copy of the unexported
// original, which lives on in internal/query as the generator's oracle).
func legacyTupleIndices(k, n int) []int {
	if k == 1 {
		return []int{n}
	}
	m := 0
	block := 1
	rem := n
	for rem >= block {
		rem -= block
		m++
		b := 1
		c := 1
		for i := 0; i < k; i++ {
			b *= m + 1
			c *= m
		}
		block = b - c
	}
	total := 1
	for i := 0; i < k; i++ {
		total *= m + 1
	}
	count := -1
	for code := 0; code < total; code++ {
		t := make([]int, k)
		c := code
		for i := k - 1; i >= 0; i-- {
			t[i] = c % (m + 1)
			c /= m + 1
		}
		hasMax := false
		for _, x := range t {
			if x == m {
				hasMax = true
				break
			}
		}
		if !hasMax {
			continue
		}
		count++
		if count == rem {
			return t
		}
	}
	panic("legacy tuple enumeration out of range")
}
