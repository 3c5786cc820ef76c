package query

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/plan"
)

// The planner fast paths. Both evaluators consult the plan cache before
// interpreting: active-domain evaluation runs the compiled plan directly,
// and §1.1 enumeration materializes the answer table of an algebra-tier
// plan once and replays the probe loop against it — same rows, same
// order, same budget accounting, without a decision procedure per probe.
// Every fast path falls back to the generic interpreter rather than
// failing: plans are an optimization, never a semantic commitment.

// planActiveAnswer tries a compiled plan for active-domain evaluation.
// ok=false means the caller should interpret (planner off, interp tier,
// plan not applicable to this state, or a non-cancellation error — the
// interpreter will reproduce any genuine error with exact semantics).
func planActiveAnswer(ctx context.Context, sp *obs.Span, dom domain.Domain, st *db.State,
	f *logic.Formula, rng []domain.Value) (*Answer, error, bool) {

	if !plan.Enabled() {
		return nil, nil, false
	}
	p := plan.For(ctx, st.Scheme(), dom.Name(), "", f)
	if p.Tier() == plan.TierInterp {
		return nil, nil, false
	}
	res, err := p.EvalActive(ctx, dom, st, rng)
	if err != nil && !canceledErr(err) {
		// ErrFallback and real errors alike: let the interpreter decide.
		return nil, nil, false
	}
	sp.ArgStr("plan_tier", string(p.Tier()))
	ans := &Answer{Vars: res.Vars, Rows: res.Rows, Complete: res.Complete}
	if ans.Rows == nil {
		// Boolean query: marker-row construction, partial on cancellation.
		ans.Rows = db.NewRelation(1)
		if res.Truth {
			if addErr := ans.Rows.Add(db.Tuple{markerTrue{}}); addErr != nil {
				return nil, nil, false
			}
		}
	}
	mEvalRows.Add(int64(ans.Rows.Len()))
	sp.Arg("rows", int64(ans.Rows.Len()))
	return ans, err, true
}

// planEnumerationAnswer tries the enumeration fast path: an algebra-tier
// plan's answer table is the §1.1 answer for the compiled (safe-range)
// fragment, so the probe loop can test candidate tuples by table
// membership instead of grounding and deciding. Budget accounting, probe
// order, row order, and partial-answer behavior replicate the generic
// loop exactly.
func planEnumerationAnswer(ctx context.Context, sp *obs.Span, dom Enumerable, st *db.State,
	f *logic.Formula, budget EnumerationBudget, sink RowSink) (*Answer, error, bool) {

	if !plan.Enabled() {
		return nil, nil, false
	}
	vars := f.FreeVars()
	// A sentence's verdict comes from the domain decider; and a variable
	// occurring only in empty-relation atoms would vanish from the
	// translated formula, changing the answer shape — both go the generic
	// way.
	if len(vars) == 0 || mentionsEmptyRelation(st, f) {
		return nil, nil, false
	}
	p := plan.For(ctx, st.Scheme(), dom.Name(), "", f)
	tab, err := p.AnswerTable(dom, st)
	if err != nil {
		return nil, nil, false
	}
	sp.ArgStr("plan_tier", string(p.Tier()))

	// perm maps the sorted variables onto the table's columns; a table
	// with other columns than the variables goes the generic way.
	if len(tab.Cols) != len(vars) {
		return nil, nil, false
	}
	perm := make([]int, len(vars))
	for i, v := range vars {
		perm[i] = -1
		for j, c := range tab.Cols {
			if c == v {
				perm[i] = j
				break
			}
		}
		if perm[i] < 0 {
			return nil, nil, false
		}
	}

	ans := &Answer{Vars: vars, Rows: db.NewRelation(len(vars)), Complete: false}
	scan := &tableScan{dom: dom, tab: tab, perm: perm, gen: newTupleGen(len(vars)),
		cells: make([]domain.Value, len(vars))}
	rows := 0
	for rows < budget.Rows {
		rsp := sp.Child("row")
		rsp.Arg("row_index", int64(rows))
		// The "more rows?" decision is a cardinality check against the
		// materialized answer instead of an existential sentence.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				rsp.End()
				sp.Arg("rows", int64(ans.Rows.Len()))
				return ans, err, true
			}
		}
		if rows == tab.Len() {
			rsp.End()
			ans.Complete = true
			mEnumRows.Add(int64(ans.Rows.Len()))
			sp.Arg("rows", int64(ans.Rows.Len()))
			return ans, nil, true
		}
		row, probes, err := scan.next(ctx, budget.Probe)
		rsp.Arg("probes", int64(probes))
		rsp.End()
		if err != nil {
			if canceledErr(err) {
				sp.Arg("rows", int64(ans.Rows.Len()))
				return ans, err, true
			}
			return nil, err, true
		}
		if row == nil {
			mEnumExhausted.Inc()
			mEnumRows.Add(int64(ans.Rows.Len()))
			sp.Arg("rows", int64(ans.Rows.Len()))
			return ans, nil, true // probe budget exhausted
		}
		rows++
		if err := ans.Rows.Add(row); err != nil {
			return nil, err, true
		}
		if err := deliverRow(sink, vars, row); err != nil {
			sp.Arg("rows", int64(ans.Rows.Len()))
			return ans, err, true
		}
	}
	mEnumExhausted.Inc()
	mEnumRows.Add(int64(ans.Rows.Len()))
	sp.Arg("rows", int64(ans.Rows.Len()))
	return ans, nil, true
}

// tableScan is nextRow with table membership in place of ground decisions,
// run as one pass over the candidate order. The generic loop rescans from
// candidate 0 for every row, spending a probe on each found row it skips;
// since rows surface in candidate order (Element visits each domain
// element once, so no candidate repeats), the row found at candidate index
// i costs it exactly i+1 probes. So one scan that keeps its position
// across rows reproduces the rows, their order and the probe accounting.
type tableScan struct {
	dom   Enumerable
	tab   *algebra.Table
	perm  []int // variable i is table column perm[i]
	gen   *tupleGen
	pos   int            // candidates consumed so far
	cells []domain.Value // probe scratch, in table column order
}

// next returns the next answer row and the probes the generic loop spends
// finding it, or nil when that exceeds the probe budget.
func (s *tableScan) next(ctx context.Context, probe int) (db.Tuple, int, error) {
	for s.pos < probe {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				mEnumProbes.Add(int64(s.pos))
				return nil, s.pos, err
			}
		}
		idx := s.gen.next()
		s.pos++
		for i, n := range idx {
			s.cells[s.perm[i]] = s.dom.Element(n)
		}
		if s.tab.Has(s.cells) {
			mEnumProbes.Add(int64(s.pos))
			row := make(db.Tuple, len(s.perm))
			for i, j := range s.perm {
				row[i] = s.cells[j]
			}
			return row, s.pos, nil
		}
	}
	mEnumProbes.Add(int64(max(probe, 0))) // the generic loop runs max(probe, 0) probes
	return nil, probe, nil
}

// mentionsEmptyRelation reports whether any database atom of the formula
// scans an empty relation in this state.
func mentionsEmptyRelation(st *db.State, f *logic.Formula) bool {
	empty := false
	scheme := st.Scheme()
	f.Walk(func(g *logic.Formula) {
		if empty || g.Kind != logic.FAtom {
			return
		}
		if _, ok := scheme.Relations[g.Pred]; !ok {
			return
		}
		rel, err := st.Relation(g.Pred)
		if err != nil || rel.Len() == 0 {
			empty = true
		}
	})
	return empty
}
