package finq

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/obs/tracectx"
)

// TestConcurrentEvalSpanIdentityUnique hammers span-identity minting from
// many goroutines sharing ONE parent trace position — plain and profiled
// active-domain evaluations and enumerations with per-row child spans, all
// concurrently — and demands that every recorded span carries
// the shared trace ID with a globally unique span ID. Run under -race
// this is also the data-race check for the ctx→child minting path.
func TestConcurrentEvalSpanIdentityUnique(t *testing.T) {
	rec := trace.NewRecorder()
	rec.Arm(1 << 16)
	defer rec.Disarm()
	root := tracectx.NewRoot()

	eq := MustLookup("eq")
	est := NewState(MustScheme(map[string]int{"F": 2}))
	for _, pair := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"eve", "abel"}} {
		if err := est.Insert("F", Word(pair[0]), Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	ef, err := eq.Parse("exists y. F(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	pres := MustLookup("presburger")
	pst := NewState(MustScheme(map[string]int{"R": 1}))
	if err := pst.Insert("R", Nat(3)); err != nil {
		t.Fatal(err)
	}
	pf, err := pres.Parse("R(x)")
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		rounds     = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := trace.WithRecorder(context.Background(), rec)
			ctx = tracectx.With(ctx, root)
			for i := 0; i < rounds; i++ {
				reqs := []Request{
					// Active-domain evaluation through the plan.
					{Domain: eq.Name, State: est, Formula: ef, Mode: ModeActive},
					// Profiled evaluation through the interpreter.
					{Domain: eq.Name, State: est, Formula: ef, Mode: ModeActive, Profile: true},
					// Enumeration: per-row Child spans mint grandchildren.
					{Domain: pres.Name, State: pst, Formula: pf, Mode: ModeEnumerate, Budget: &DefaultBudget},
				}
				for _, req := range reqs {
					if _, err := Eval(ctx, req); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	rec.Disarm()

	events := rec.Dump()
	wantTrace := root.TraceID.String()
	seen := make(map[string]string, len(events))
	identified := 0
	for _, e := range events {
		if e.Phase != trace.PhaseBegin || e.Span == "" {
			continue
		}
		identified++
		if e.Trace != wantTrace {
			t.Fatalf("span %s (%s) carries trace %s, want the shared root %s",
				e.Span, e.Name, e.Trace, wantTrace)
		}
		if e.Parent == "" {
			t.Fatalf("span %s (%s) has no parent; only the synthetic root may be parentless", e.Span, e.Name)
		}
		if prev, dup := seen[e.Span]; dup {
			t.Fatalf("span ID %s minted twice (%s and %s)", e.Span, prev, e.Name)
		}
		seen[e.Span] = e.Name
	}
	// Every goroutine ran plain + profiled + enumerate rounds; each mints
	// at least one identified span, so the floor is goroutines*rounds*3.
	if identified < goroutines*rounds*3 {
		t.Fatalf("only %d identified spans recorded, want >= %d (ring dropped %d)",
			identified, goroutines*rounds*3, rec.Dropped())
	}
}
