package plan

import (
	"context"
	"errors"

	"repro/internal/algebra"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
)

// ErrFallback reports that a plan cannot serve the requested evaluation
// (interp tier, or an algebra plan whose preconditions don't hold for this
// state); the caller should use the generic evaluator.
var ErrFallback = errors.New("plan: fall back to generic evaluator")

// Result is a plan evaluation's outcome. For boolean queries (no free
// variables) Truth carries the verdict and Rows is nil; otherwise Rows is
// a relation over Vars (sorted). Complete is false when cancellation
// stopped the evaluation early — the rows gathered so far are returned
// alongside the context's error, mirroring the generic evaluator.
type Result struct {
	Vars     []string
	Truth    bool
	Rows     *db.Relation
	Complete bool
}

func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// EvalActive evaluates the plan under active-domain semantics: free
// variables and quantifiers range over rng (the state's active domain
// plus the query's constants, as computed by the caller). Returns
// ErrFallback when this plan cannot answer for the given state.
func (p *Plan) EvalActive(ctx context.Context, dom domain.Domain, st *db.State, rng []domain.Value) (*Result, error) {
	switch p.tier {
	case TierAlgebra:
		// Natural semantics agrees with active-domain semantics for the
		// compiled (safe-range) fragment except over an empty range, where
		// active semantics can make an existential vacuously false; hand
		// that edge to an evaluator with exact semantics.
		if len(rng) == 0 {
			return nil, ErrFallback
		}
		tab, err := p.alg.Eval(&algebra.Ctx{St: st, Dom: dom})
		if err != nil {
			return nil, err
		}
		return p.resultFromTable(ctx, tab)
	case TierClosure:
		return p.prog.run(ctx, dom, st, rng)
	}
	return nil, ErrFallback
}

// AnswerTable materializes the plan's full answer as an algebra table —
// the natural-semantics answer, which for the compiled safe-range
// fragment is exactly the §1.1 enumeration answer. Only algebra-tier
// plans with at least one free variable can serve it (a sentence's
// enumeration verdict comes from the domain decider, not the database).
func (p *Plan) AnswerTable(dom domain.Domain, st *db.State) (*algebra.Table, error) {
	if p.tier != TierAlgebra || len(p.vars) == 0 {
		return nil, ErrFallback
	}
	return p.alg.Eval(&algebra.Ctx{St: st, Dom: dom})
}

// resultFromTable converts an algebra answer table into a Result, mapping
// table columns to the plan's sorted variable order. The rows are copied
// once, unsorted: the relation orders them by key when they are read. A
// context already dead before the copy yields an empty partial answer and
// the context's error, matching the generic evaluator's contract.
func (p *Plan) resultFromTable(ctx context.Context, tab *algebra.Table) (*Result, error) {
	if len(p.vars) == 0 {
		return &Result{Vars: p.vars, Truth: tab.Len() > 0, Complete: true}, nil
	}
	perm := make([]int, len(p.vars))
	cols := tab.Cols
	for i, v := range p.vars {
		perm[i] = -1
		for j, c := range cols {
			if c == v {
				perm[i] = j
				break
			}
		}
		if perm[i] < 0 {
			return nil, ErrFallback
		}
	}
	res := &Result{Vars: p.vars, Rows: db.NewRelation(len(p.vars)), Complete: true}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			res.Complete = false
			return res, err
		}
	}
	// Add copies the tuple, so one scratch tuple serves every row.
	t := make(db.Tuple, len(perm))
	err := tab.Each(func(row []domain.Value) error {
		for i, j := range perm {
			t[i] = row[j]
		}
		return res.Rows.Add(t)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run evaluates a closure program: free variables are assigned in sorted
// order over their (possibly narrowed) ranges, the root closure decides
// each assignment, and the context is polled unstrided between outer rows
// — the same loop structure and cancellation granularity as the generic
// evaluator.
func (p *prog) run(ctx context.Context, dom domain.Domain, st *db.State, rng []domain.Value) (*Result, error) {
	e := p.newEnv(ctx, dom, st, rng)

	if len(p.vars) == 0 {
		v, err := p.root(e)
		if err != nil {
			if canceled(err) {
				return &Result{Vars: p.vars, Complete: false}, err
			}
			return nil, err
		}
		return &Result{Vars: p.vars, Truth: v, Complete: true}, nil
	}

	res := &Result{Vars: p.vars, Rows: db.NewRelation(len(p.vars)), Complete: true}
	var assign func(i int) error
	assign = func(i int) error {
		if i == len(p.vars) {
			v, err := p.root(e)
			if err != nil {
				return err
			}
			if v {
				t := make(db.Tuple, len(p.vars))
				copy(t, e.slots[:len(p.vars)])
				return res.Rows.Add(t)
			}
			return nil
		}
		cands := e.rng
		if nid := p.freeNarrow[i]; nid >= 0 {
			var err error
			if cands, err = e.narrowVals(nid); err != nil {
				return err
			}
		}
		for _, v := range cands {
			if i == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			e.slots[i] = v
			if err := assign(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := assign(0); err != nil {
		if canceled(err) {
			res.Complete = false
			return res, err
		}
		return nil, err
	}
	return res, nil
}

// ForFormula is For with the key computed from the formula; convenience
// for callers without a precomputed canonical key.
func ForFormula(ctx context.Context, scheme *db.Scheme, domainName string, f *logic.Formula) *Plan {
	return For(ctx, scheme, domainName, "", f)
}
