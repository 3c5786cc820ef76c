package query

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/presburger"
)

// slowDecider delays every decision so tests can cancel a context
// mid-enumeration deterministically.
type slowDecider struct {
	inner domain.Decider
	delay time.Duration
}

func (s slowDecider) Decide(f *logic.Formula) (bool, error) {
	time.Sleep(s.delay)
	return s.inner.Decide(f)
}

// TestEnumerationCtxCancelMidRun cancels the context while the §1.1 loop
// is between rows: the partial answer found so far must come back with
// Complete=false and the context's error.
func TestEnumerationCtxCancelMidRun(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(5)); err != nil {
		t.Fatal(err)
	}
	// ¬R(x) is infinite: without a deadline the budget is the only stop.
	f := logic.Not(logic.Atom("R", logic.Var("x")))
	dec := slowDecider{inner: presburger.Decider(), delay: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	ans, err := EnumerationAnswerCtx(ctx, presburger.Domain{}, dec, st, f,
		EnumerationBudget{Rows: 1 << 20, Probe: 1 << 20})
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if ans == nil {
		t.Fatal("cancelled enumeration must return the partial answer")
	}
	if ans.Complete {
		t.Fatal("cancelled enumeration reported complete")
	}
	// Promptness: the loop checks between rows and probes, so the return
	// should come within one probe granule (a slow decision) of the
	// deadline, not after the huge budget.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled enumeration took %v", elapsed)
	}
}

// TestEnumerationCtxAlreadyCancelled: a dead context stops the run before
// the first decision.
func TestEnumerationCtxAlreadyCancelled(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(1)); err != nil {
		t.Fatal(err)
	}
	f := logic.Not(logic.Atom("R", logic.Var("x")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans, err := EnumerationAnswerCtx(ctx, presburger.Domain{}, presburger.Decider(), st, f, DefaultBudget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ans != nil && ans.Rows.Len() != 0 {
		t.Fatalf("dead context produced %d rows", ans.Rows.Len())
	}
}

// TestEvalActiveCtxCancel cancels active-domain evaluation and checks the
// partial answer contract: rows so far, Complete=false, context error.
func TestEvalActiveCtxCancel(t *testing.T) {
	st := chainState(t, 64)
	f := logic.Atom("F", logic.Var("x"), logic.Var("y"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans, err := EvalActiveCtx(ctx, eqDomainOverInts{}, st, f)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ans == nil || ans.Complete {
		t.Fatalf("cancelled eval: want partial answer, got %+v", ans)
	}
}

// TestEvalActiveProfiledCtxCancel: the profiled entry point keeps the
// partial-answer contract of EvalActiveCtx — a dead context yields the
// rows so far, a profile marked incomplete, and the context's error.
func TestEvalActiveProfiledCtxCancel(t *testing.T) {
	st := chainState(t, 16)
	f := logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans, prof, err := EvalActiveProfiledCtx(ctx, eqDomainOverInts{}, st, f)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ans == nil || ans.Complete || prof == nil || prof.Complete {
		t.Fatalf("cancelled profiled eval: want partial answer and profile, got %+v, %+v", ans, prof)
	}
	if prof.Rows != ans.Rows.Len() {
		t.Errorf("profile rows %d, answer has %d", prof.Rows, ans.Rows.Len())
	}
}

// TestEvalActiveParallelAllWorkersError: P is not a database relation and
// eqDomainOverInts has no predicates, so every assignment fails. Several
// goroutines ("workers") evaluate over one shared state at once, as the
// server's concurrent requests do; each must get the domain error and no
// answer from both entry points, and a watchdog turns a hang into a failure.
func TestEvalActiveParallelAllWorkersError(t *testing.T) {
	checkDomainErrorConcurrently(t, logic.Atom("P", logic.Var("x")))
}

// TestEvalActiveParallelPartialErrors: only the assignments that reach the
// failing disjunct P(x) error, so concurrent workers mix successful atom
// evaluations with failing ones; the domain error must still surface.
func TestEvalActiveParallelPartialErrors(t *testing.T) {
	checkDomainErrorConcurrently(t,
		logic.Or(logic.Atom("F", logic.Var("x"), logic.Var("y")), logic.Atom("P", logic.Var("x"))))
}

// checkDomainErrorConcurrently evaluates f from 1, 2 and 8 concurrent
// workers over one chain state and checks that every call, plain and
// profiled, returns errNoFunc with no answer within the watchdog.
func checkDomainErrorConcurrently(t *testing.T, f *logic.Formula) {
	t.Helper()
	st := chainState(t, 16)
	for _, workers := range []int{1, 2, 8} {
		errs := make(chan string, 2*workers)
		for w := 0; w < workers; w++ {
			go func() {
				ans, err := EvalActiveCtx(context.Background(), eqDomainOverInts{}, st, f)
				if !errors.Is(err, errNoFunc) || ans != nil {
					errs <- fmt.Sprintf("want the domain error and no answer, got %v, %v", ans, err)
				} else {
					errs <- ""
				}
				ans, prof, err := EvalActiveProfiledCtx(context.Background(), eqDomainOverInts{}, st, f)
				if !errors.Is(err, errNoFunc) || ans != nil || prof != nil {
					errs <- fmt.Sprintf("profiled: want the domain error and no answer, got %v, %v, %v", ans, prof, err)
				} else {
					errs <- ""
				}
			}()
		}
		watchdog := time.After(30 * time.Second)
		for i := 0; i < 2*workers; i++ {
			select {
			case msg := <-errs:
				if msg != "" {
					t.Errorf("workers=%d, %v: %s", workers, f, msg)
				}
			case <-watchdog:
				t.Fatalf("workers=%d, %v: evaluation hung on a domain error", workers, f)
			}
		}
	}
}

// chainState is the integer chain F = {(i, i+1) : i < n}.
func chainState(t *testing.T, n int) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for i := 0; i < n; i++ {
		if err := st.Insert("F", domain.Int(int64(i)), domain.Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// eqDomainOverInts is the equality-only view over integer values, enough
// for random evaluation tests.
type eqDomainOverInts struct{}

func (eqDomainOverInts) Name() string { return "eqints" }
func (eqDomainOverInts) ConstValue(name string) (domain.Value, error) {
	return eqdom.Domain{}.ConstValue(name)
}
func (eqDomainOverInts) ConstName(v domain.Value) string { return v.Key() }
func (eqDomainOverInts) Func(string, []domain.Value) (domain.Value, error) {
	return nil, errNoFunc
}
func (eqDomainOverInts) Pred(string, []domain.Value) (bool, error) {
	return false, errNoFunc
}

var errNoFunc = &noFuncError{}

type noFuncError struct{}

func (*noFuncError) Error() string { return "eqints: pure equality signature" }
