// Package query implements query answering over a domain and a database
// state: the translation of database atoms into pure domain formulas
// ([AGSS86], recalled in §1.1 of the paper), active-domain evaluation, and
// the §1.1 enumeration algorithm that computes finite answers over any
// countable decidable domain with constants for all elements.
package query

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
)

// stopCheck polls a context from the evaluator's loops. The recursion is
// the evaluator's hot path and must carry no per-iteration atomic traffic,
// so quantifier iterations poll through a stride: only every 256th check
// touches the context. A nil receiver or nil context never stops.
type stopCheck struct {
	ctx context.Context
	n   uint32
}

// hit polls the context at full stride (every call); use where each
// iteration already pays for a decision procedure or a row.
func (s *stopCheck) hit() error {
	if s == nil || s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// strided polls the context every 256th call; use inside hot loops.
func (s *stopCheck) strided() error {
	if s == nil || s.ctx == nil {
		return nil
	}
	if s.n++; s.n&255 != 0 {
		return nil
	}
	return s.ctx.Err()
}

// canceledErr reports whether err is a context cancellation (deadline or
// explicit cancel), the case in which evaluators surface partial answers.
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Translate rewrites a query formula into a pure domain formula relative to
// a state: every database relation atom R(t̄) becomes the disjunction over
// R's rows of the pointwise equalities ("we can replace each occurrence of
// R(x, y) with ((x=a1 ∧ y=b1) ∨ … ∨ (x=ar ∧ y=br))"), and every database
// constant becomes the domain constant naming its value.
func Translate(dom domain.Domain, st *db.State, f *logic.Formula) (*logic.Formula, error) {
	mTranslateCalls.Inc()
	scheme := st.Scheme()
	var firstErr error
	atoms := int64(0)
	g := f.Map(func(h *logic.Formula) *logic.Formula {
		if h.Kind != logic.FAtom || firstErr != nil {
			return h
		}
		arity, isDB := scheme.Relations[h.Pred]
		if !isDB {
			return h
		}
		atoms++
		if len(h.Args) != arity {
			firstErr = fmt.Errorf("query: relation %s expects %d arguments, got %d", h.Pred, arity, len(h.Args))
			return h
		}
		rel, err := st.Relation(h.Pred)
		if err != nil {
			firstErr = err
			return h
		}
		var rows []*logic.Formula
		for _, tuple := range rel.Tuples() {
			conj := make([]*logic.Formula, arity)
			for i, v := range tuple {
				conj[i] = logic.Eq(h.Args[i], logic.Const(dom.ConstName(v)))
			}
			rows = append(rows, logic.And(conj...))
		}
		return logic.Or(rows...)
	})
	mTranslateAtoms.Add(atoms)
	if firstErr != nil {
		return nil, firstErr
	}
	// Database constants become domain constants for their state values.
	for _, cname := range scheme.Constants {
		if !formulaUsesConst(g, cname) {
			continue
		}
		v, err := st.Constant(cname)
		if err != nil {
			return nil, err
		}
		g = logic.SubstConst(g, cname, logic.Const(dom.ConstName(v)))
	}
	return g, nil
}

func formulaUsesConst(f *logic.Formula, name string) bool {
	used := false
	f.Walk(func(g *logic.Formula) {
		if g.Kind != logic.FAtom || used {
			return
		}
		for _, t := range g.Args {
			var consts []string
			consts = t.Constants(consts)
			for _, c := range consts {
				if c == name {
					used = true
					return
				}
			}
		}
	})
	return used
}

// stateInterp interprets database relations (over a state) on top of a
// domain interpretation. Database constants must be translated away first
// (Translate does) or resolved via the state.
type stateInterp struct {
	dom domain.Domain
	st  *db.State
}

// ConstValue resolves database constants via the state, then domain
// constants via the domain.
func (si stateInterp) ConstValue(name string) (domain.Value, error) {
	if si.st.Scheme().HasConstant(name) {
		return si.st.Constant(name)
	}
	return si.dom.ConstValue(name)
}

func (si stateInterp) Func(name string, args []domain.Value) (domain.Value, error) {
	return si.dom.Func(name, args)
}

func (si stateInterp) Pred(name string, args []domain.Value) (bool, error) {
	if arity, ok := si.st.Scheme().Relations[name]; ok {
		if len(args) != arity {
			return false, fmt.Errorf("query: relation %s expects %d arguments, got %d", name, arity, len(args))
		}
		rel, err := si.st.Relation(name)
		if err != nil {
			return false, err
		}
		return rel.Has(db.Tuple(args)), nil
	}
	return si.dom.Pred(name, args)
}

// Answer is a computed query result: a relation over the query's free
// variables in sorted order.
type Answer struct {
	Vars     []string
	Rows     *db.Relation
	Complete bool // false when a budget stopped the computation
}

// EvalActiveCtx evaluates a query under active-domain semantics:
// quantifiers and free variables range over the state's active domain plus
// the query's constants. For domain-independent queries this agrees with
// the natural semantics; for others it is the classical engine
// approximation. The context is polled between free-variable rows and
// (strided) inside quantifier loops. On cancellation the rows found so far
// are returned with Complete=false alongside the context's error, so
// callers can serve a partial answer.
func EvalActiveCtx(ctx context.Context, dom domain.Domain, st *db.State, f *logic.Formula) (*Answer, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "query.eval_active")
	defer sp.End()
	mEvalCalls.Inc()
	rng, err := activeRange(dom, st, f)
	if err != nil {
		return nil, err
	}
	hEvalDomain.Observe(int64(len(rng)))
	sp.Arg("active_domain", int64(len(rng)))
	if sp.Traced() {
		sp.Arg("formula_size", int64(f.Size()))
	}
	// Compiled-plan fast path: serve from the plan cache when the planner
	// has a non-interp tier for this query; fall through to the generic
	// interpreter otherwise.
	if ans, err, ok := planActiveAnswer(ctx, sp, dom, st, f, rng); ok {
		return ans, err
	}
	ans, leaves, err := interpret(ctx, stateInterp{dom: dom, st: st}, f, rng, nil)
	mEvalAssigns.Add(leaves)
	if err != nil {
		if ans != nil {
			sp.Arg("rows", int64(ans.Rows.Len()))
		}
		return ans, err
	}
	mEvalRows.Add(int64(ans.Rows.Len()))
	sp.Arg("assignments", leaves)
	sp.Arg("rows", int64(ans.Rows.Len()))
	return ans, nil
}

// interpret is the interpreter's one assignment loop: it binds the free
// variables to every tuple over rng in order (a sentence gets the one
// empty assignment), evaluates f under each with evalIn, and collects the
// satisfying tuples. node, when non-nil, is the profile tree evalIn
// accounts into. It returns the number of assignments evaluated. On
// cancellation the rows found so far come back with Complete=false and
// the context's error; on any other error the answer is nil.
func interpret(ctx context.Context, si stateInterp, f *logic.Formula, rng []domain.Value, node *ProfileNode) (*Answer, int64, error) {
	vars := f.FreeVars()
	ans := &Answer{Vars: vars, Rows: db.NewRelation(maxInt(len(vars), 1)), Complete: true}
	env := domain.Env{}
	stop := &stopCheck{ctx: ctx}
	// Leaf assignments are counted locally and flushed by the caller: the
	// recursion is the evaluator's hot loop and must carry no atomic
	// traffic.
	leaves := int64(0)
	var assign func(i int) error
	assign = func(i int) error {
		if i == len(vars) {
			leaves++
			v, err := evalIn(si, env, f, node, rng, stop)
			if err != nil || !v {
				return err
			}
			tuple := make(db.Tuple, maxInt(len(vars), 1))
			if len(vars) == 0 {
				// A boolean query: record a single marker row when true.
				tuple[0] = markerTrue{}
			} else {
				for j, name := range vars {
					tuple[j] = env[name]
				}
			}
			return ans.Rows.Add(tuple)
		}
		for _, v := range rng {
			if i == 0 {
				// Between outer rows the poll is unstrided: a cancelled
				// request stops within one row granule.
				if err := stop.hit(); err != nil {
					return err
				}
			}
			env[vars[i]] = v
			if err := assign(i + 1); err != nil {
				return err
			}
		}
		delete(env, vars[i])
		return nil
	}
	if err := assign(0); err != nil {
		if canceledErr(err) {
			ans.Complete = false
			return ans, leaves, err
		}
		return nil, leaves, err
	}
	return ans, leaves, nil
}

// markerTrue is the single row of a true boolean query.
type markerTrue struct{}

func (markerTrue) Key() string    { return "⊤" }
func (markerTrue) String() string { return "true" }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// activeRange is the active domain of the state extended with the query's
// constant values. The active domain is sorted by key, so a constant's
// membership is a binary search over it (plus a scan of the few constants
// already appended); a query without constants gets the memoized active
// domain itself. That slice has no spare capacity, so the first append
// copies it.
func activeRange(dom domain.Domain, st *db.State, f *logic.Formula) ([]domain.Value, error) {
	adom := st.ActiveDomain()
	rng := adom
	si := stateInterp{dom: dom, st: st}
	for _, cname := range f.Constants() {
		v, err := si.ConstValue(cname)
		if err != nil {
			return nil, err
		}
		k := v.Key()
		i := sort.Search(len(adom), func(i int) bool { return adom[i].Key() >= k })
		if i < len(adom) && adom[i].Key() == k {
			continue
		}
		if !slices.ContainsFunc(rng[len(adom):], func(u domain.Value) bool { return u.Key() == k }) {
			rng = append(rng, v)
		}
	}
	return rng, nil
}

// evalIn evaluates a formula with quantifiers ranging over rng, polling
// stop (strided) on each quantifier iteration. node, when non-nil, is f's
// node in a profile tree built by buildProfileTree: the walk descends it in
// lockstep with the formula and counts evaluations, true outcomes,
// quantifier ranges and inclusive wall time into it. With a nil node no
// accounting is done and no clock is read.
func evalIn(si stateInterp, env domain.Env, f *logic.Formula, node *ProfileNode, rng []domain.Value, stop *stopCheck) (truth bool, err error) {
	if node != nil {
		node.Evals++
		t0 := time.Now()
		defer func() {
			node.WallNS += time.Since(t0).Nanoseconds()
			if truth && err == nil {
				node.True++
			}
		}()
	}
	switch f.Kind {
	case logic.FExists, logic.FForall:
		if node != nil {
			node.Range = len(rng)
		}
		saved, had := env[f.Var]
		defer func() {
			if had {
				env[f.Var] = saved
			} else {
				delete(env, f.Var)
			}
		}()
		for _, v := range rng {
			if err := stop.strided(); err != nil {
				return false, err
			}
			env[f.Var] = v
			r, err := evalIn(si, env, f.Sub[0], node.child(0), rng, stop)
			if err != nil {
				return false, err
			}
			if f.Kind == logic.FExists && r {
				return true, nil
			}
			if f.Kind == logic.FForall && !r {
				return false, nil
			}
		}
		return f.Kind == logic.FForall, nil
	case logic.FNot:
		v, err := evalIn(si, env, f.Sub[0], node.child(0), rng, stop)
		return !v, err
	case logic.FAnd:
		for i, s := range f.Sub {
			v, err := evalIn(si, env, s, node.child(i), rng, stop)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case logic.FOr:
		for i, s := range f.Sub {
			v, err := evalIn(si, env, s, node.child(i), rng, stop)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	case logic.FImplies:
		a, err := evalIn(si, env, f.Sub[0], node.child(0), rng, stop)
		if err != nil {
			return false, err
		}
		if !a {
			return true, nil
		}
		return evalIn(si, env, f.Sub[1], node.child(1), rng, stop)
	case logic.FIff:
		a, err := evalIn(si, env, f.Sub[0], node.child(0), rng, stop)
		if err != nil {
			return false, err
		}
		b, err := evalIn(si, env, f.Sub[1], node.child(1), rng, stop)
		return a == b, err
	default:
		return domain.EvalQF(si, env, f)
	}
}
