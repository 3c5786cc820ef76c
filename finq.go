// Package finq is the public API of this reproduction of Stolboushkin &
// Taitslin, "Finite Queries Do Not Have Effective Syntax" (PODS 1995 /
// Information and Computation 153, 1999).
//
// It exposes the paper's objects as a library:
//
//   - seven domains — the pure-equality domain, N< (naturals with order),
//     full Presburger arithmetic, ℤ with order, N' (naturals with
//     successor), words with shortlex order, and the paper's trace domain
//     T — each recursive, each with a decision procedure for its
//     first-order theory built on quantifier elimination;
//   - relational database schemes and states (Codd's model) and query
//     evaluation: active-domain semantics and the paper's §1.1 enumeration
//     algorithm that computes finite answers over any decidable domain;
//   - the safety toolbox: syntactic safe-range analysis, the finitization
//     syntax of Theorem 2.2, relative-safety deciders for the positive
//     domains (Theorems 2.5 and 2.6), and the negative machinery over T —
//     totality queries, Theorem 3.1 equivalence sentences, and the
//     Theorem 3.3 halting reduction.
//
// Quickstart:
//
//	d, _ := finq.Lookup("eq")
//	scheme := finq.MustScheme(map[string]int{"F": 2})
//	st := finq.NewState(scheme)
//	st.Insert("F", finq.Word("adam"), finq.Word("abel"))
//	f, _ := d.Parse("exists y. F(x, y)")
//	res, _ := finq.Eval(context.Background(), finq.Request{Domain: "eq", State: st, Formula: f})
//	// res.Answer holds the rows; set Request.Profile for an EXPLAIN
//	// profile, Request.Mode = finq.ModeEnumerate for the §1.1 algorithm.
package finq

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/deccache"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/domains/nless"
	"repro/internal/domains/nsucc"
	"repro/internal/domains/wordlex"
	"repro/internal/domains/zless"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/qstats"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/traces"
)

// Re-exported core types. The facade keeps one import for applications;
// the internal packages remain the implementation.
type (
	// Formula is a first-order formula.
	Formula = logic.Formula
	// Term is a first-order term.
	Term = logic.Term
	// Scheme is a database scheme.
	Scheme = db.Scheme
	// State is a database state.
	State = db.State
	// Tuple is a relation row.
	Tuple = db.Tuple
	// Relation is a finite relation.
	Relation = db.Relation
	// Value is a domain element.
	Value = domain.Value
	// Answer is a computed query answer.
	Answer = query.Answer
	// Verdict is a three-valued semi-decision outcome.
	Verdict = domain.Verdict
	// SafeRangeReport is the output of the safe-range analysis.
	SafeRangeReport = core.SafeRangeReport
)

// Verdict values.
const (
	Holds   = domain.Holds
	Fails   = domain.Fails
	Unknown = domain.Unknown
)

// Word returns a string-valued domain element (equality and trace domains).
func Word(s string) Value { return domain.Word(s) }

// Nat returns a natural-number element (arithmetic domains).
func Nat(n int64) Value { return domain.Int(n) }

// NewScheme builds a database scheme.
func NewScheme(relations map[string]int, constants ...string) (*Scheme, error) {
	return db.NewScheme(relations, constants...)
}

// MustScheme is NewScheme panicking on error.
func MustScheme(relations map[string]int, constants ...string) *Scheme {
	return db.MustScheme(relations, constants...)
}

// NewState returns the empty state of a scheme.
func NewState(scheme *Scheme) *State { return db.NewState(scheme) }

// DomainInfo bundles a domain with its decision procedure, quantifier
// eliminator, enumeration, and parser configuration.
type DomainInfo struct {
	// Name identifies the domain: "eq", "nless", "presburger", "nsucc",
	// or "traces".
	Name string
	// Doc is a one-line description.
	Doc string
	// Domain is the recursive interpretation.
	Domain domain.Domain
	// Decider decides pure-domain sentences.
	Decider domain.Decider
	// Eliminator performs quantifier elimination.
	Eliminator domain.Eliminator
	// Enumerator enumerates the universe (nil if unsupported).
	Enumerator domain.Enumerator
	// parserOpts classifies identifiers when parsing formulas.
	parserOpts parser.Options
}

// Parse parses a formula in the domain's concrete syntax.
func (d DomainInfo) Parse(src string) (*Formula, error) {
	return parser.ParseWith(src, d.parserOpts)
}

// ParseWithConstants parses a formula treating the given identifiers as
// constant symbols (for example database constants like "c"); all other
// plain identifiers in term position remain variables.
func (d DomainInfo) ParseWithConstants(src string, constants ...string) (*Formula, error) {
	opts := parser.Options{
		Constants: map[string]bool{},
		Functions: d.parserOpts.Functions,
	}
	for _, c := range constants {
		opts.Constants[c] = true
	}
	return parser.ParseWith(src, opts)
}

var registry = []DomainInfo{
	{
		Name: "eq", Doc: "infinite domain with equality only",
		Domain: eqdom.Domain{}, Decider: eqdom.Decider(),
		Eliminator: eqdom.Eliminator{}, Enumerator: eqdom.Domain{},
	},
	{
		Name: "nless", Doc: "natural numbers with <",
		Domain: nless.Domain{}, Decider: nless.Decider(),
		Eliminator: nless.Eliminator{}, Enumerator: nless.Domain{},
	},
	{
		Name: "presburger", Doc: "natural numbers with <, ≤, +, −, divisibility",
		Domain: presburger.Domain{}, Decider: presburger.Decider(),
		Eliminator: presburger.Eliminator{}, Enumerator: presburger.Domain{},
		parserOpts: parser.Options{Functions: map[string]bool{
			presburger.FuncAdd: true, presburger.FuncSub: true,
			presburger.FuncMul: true, presburger.FuncNeg: true,
		}},
	},
	{
		Name: "zless", Doc: "integers with <, +, −, divisibility",
		Domain: zless.Domain{}, Decider: zless.Decider(),
		Eliminator: zless.Eliminator(), Enumerator: zless.Domain{},
		parserOpts: parser.Options{Functions: map[string]bool{
			presburger.FuncAdd: true, presburger.FuncSub: true,
			presburger.FuncMul: true, presburger.FuncNeg: true,
		}},
	},
	{
		Name: "nsucc", Doc: "natural numbers with successor (no order)",
		Domain: nsucc.Domain{}, Decider: nsucc.Decider(),
		Eliminator: nsucc.Eliminator{}, Enumerator: nsucc.Domain{},
		parserOpts: parser.Options{Functions: nsucc.ParserOptions()},
	},
	{
		Name: "wordlex", Doc: "words over {a,b} with shortlex order",
		Domain: wordlex.Domain{}, Decider: wordlex.Decider(),
		Eliminator: wordlex.Eliminator{}, Enumerator: wordlex.Domain{},
	},
	{
		Name: "traces", Doc: "the paper's trace domain T (Section 3)",
		Domain: traces.Domain{}, Decider: traces.Decider(),
		Eliminator: traces.Eliminator{}, Enumerator: traces.Domain{},
		parserOpts: parser.Options{Functions: traces.ParserOptions()},
	},
}

// Domains lists the registered domains.
func Domains() []DomainInfo { return append([]DomainInfo(nil), registry...) }

// Lookup finds a domain by name.
func Lookup(name string) (DomainInfo, error) {
	for _, d := range registry {
		if d.Name == name {
			return d, nil
		}
	}
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.Name
	}
	return DomainInfo{}, fmt.Errorf("finq: unknown domain %q (have %s)", name, strings.Join(names, ", "))
}

// MustLookup is Lookup panicking on error.
func MustLookup(name string) DomainInfo {
	d, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Translate rewrites a query into a pure domain formula relative to a state
// (the §1.1 / [AGSS86] technique).
func Translate(d DomainInfo, st *State, f *Formula) (*Formula, error) {
	return query.Translate(d.Domain, st, f)
}

// EvalMode selects the evaluation algorithm for Eval.
type EvalMode string

const (
	// ModeActive is active-domain evaluation (the default): quantifiers
	// and free variables range over the state's active domain plus the
	// query's constants.
	ModeActive EvalMode = "active"
	// ModeEnumerate is the paper's §1.1 enumeration algorithm: complete on
	// finite (safe) queries, budget-capped on infinite ones.
	ModeEnumerate EvalMode = "enumerate"
)

// Request describes one evaluation for Eval: which domain, against which
// state, which formula, and how to run it. The zero value of every option
// is a sensible default, so Request{Domain: "eq", Formula: f} is a
// complete request.
type Request struct {
	// Domain names the registered domain ("eq", "nless", "presburger",
	// "zless", "nsucc", "wordlex", "traces").
	Domain string
	// State is the database state; nil means the empty state of the empty
	// scheme.
	State *State
	// Formula is the parsed query. Required.
	Formula *Formula
	// Mode selects the algorithm; empty means ModeActive.
	Mode EvalMode
	// Budget bounds ModeEnumerate; nil means DefaultBudget. Ignored under
	// ModeActive.
	Budget *EnumerationBudget
	// Profile requests a per-node EXPLAIN profile alongside the answer
	// (ModeActive only). Profiled runs go through the interpreter with
	// per-node timers, so they are slower.
	Profile bool
	// OnRow, when non-nil under ModeEnumerate, receives each answer row as
	// the §1.1 algorithm finds it — before the next existential decision —
	// so callers can stream rows while the evaluation is still running.
	// The tuple is shared with the answer under construction and must not
	// be mutated. A non-nil error stops the enumeration: the rows so far
	// come back as a partial Result (Stopped "client-gone" when the error
	// is ErrClientGone, an error otherwise).
	OnRow func(vars []string, row Tuple) error
}

// Result is Eval's outcome. Partial answers — a row budget or the request
// context stopped the computation — are results, not errors: Answer holds
// the rows found so far, Partial is set, and Stopped names what stopped
// the run ("budget", "deadline", "canceled", or "client-gone").
type Result struct {
	// Answer is the computed (possibly partial) answer.
	Answer *Answer
	// Profile is the EXPLAIN profile, when the request asked for one.
	Profile *Profile
	// Partial reports that the computation was stopped before completion.
	Partial bool
	// Stopped is "" for a complete answer, else "budget", "deadline",
	// "canceled", or "client-gone".
	Stopped string
}

// ErrClientGone marks a consumer that went away mid-evaluation: cancel an
// evaluation context with it as the cause (context.WithCancelCause), or
// return it from Request.OnRow, and the partial Result comes back with
// Stopped = "client-gone" instead of "canceled" — so spans, the access
// log, and per-query stats distinguish a client disconnect from a
// server-side cancellation.
var ErrClientGone = errors.New("finq: client gone")

// Eval is the single evaluation entrypoint: it runs the request's formula
// over the named domain and state under the given context, honoring
// cancellation between rows, probes, and quantifier-elimination stages.
// When the context dies mid-computation the rows found so far come back as
// a partial Result rather than an error, so services can serve what was
// computed. The CLIs, the REPL, and the finqd server all evaluate through
// this function.
func Eval(ctx context.Context, req Request) (*Result, error) {
	if req.Formula == nil {
		return nil, errors.New("finq: Eval: Request.Formula is required")
	}
	d, err := Lookup(req.Domain)
	if err != nil {
		return nil, err
	}
	st := req.State
	if st == nil {
		st = db.NewState(db.MustScheme(map[string]int{}))
	}
	mode := req.Mode
	if mode == "" {
		mode = ModeActive
	}
	// The root evaluation span: with a request ID in ctx (finqd, or any
	// caller using logctx.WithRequestID) its trace events — and those of
	// every evaluator and QE span below it — carry the ID, so one request's
	// full lifecycle can be pulled out of a trace by ID. With a trace
	// position in ctx (tracectx.With) the span gets its own W3C span ID and
	// the evaluator spans below become its children.
	ctx, sp := obs.StartSpanCtx(ctx, "finq.eval")
	sp.ArgStr("domain", req.Domain)
	sp.ArgStr("mode", string(mode))
	defer sp.End()

	// Per-query stats: deccache and plan-cache tallies on the context
	// attribute this evaluation's cache traffic to it, and the finished run
	// is folded into the qstats registry keyed by the formula's canonical
	// key.
	var tally *deccache.Tally
	var planTally *plan.Tally
	recording := qstats.Enabled()
	if recording {
		ctx, tally = deccache.WithTally(ctx)
		ctx, planTally = plan.WithTally(ctx)
	}
	// The canonical key is both the qstats registry key and the pprof
	// query_key label, so a profile slice and a stats row name the same
	// query class. Computed once, only when someone will consume it.
	var key string
	if recording || prof.Enabled() {
		key = req.Formula.CanonicalKey()
	}
	var res *Result
	t0 := time.Now()
	mark := prof.BeginAlloc()
	prof.Do(ctx, func(ctx context.Context) {
		res, err = evalMode(ctx, d, st, mode, req)
	}, "query_key", prof.QueryKeyLabel(key), "domain", req.Domain, "mode", string(mode))
	allocBytes, allocObjs, allocSampled := mark.End()
	// A cancellation caused by the consumer going away (the streaming
	// handler cancels with ErrClientGone when the client disconnects) is
	// its own stop reason, so traffic analysis can tell abandoned requests
	// from server-side deadlines.
	if res != nil && res.Stopped == "canceled" && errors.Is(context.Cause(ctx), ErrClientGone) {
		res.Stopped = "client-gone"
	}
	if res != nil && res.Stopped != "" {
		sp.ArgStr("stopped", res.Stopped)
	}
	// EXPLAIN surfaces carry the compiled plan's text: profiled runs
	// evaluate through the instrumented interpreter, so the plan lookup here
	// (a cache hit in the steady state) shows what the planner would run.
	if res != nil && res.Profile != nil {
		res.Profile.Plan = plan.For(ctx, st.Scheme(), d.Name, key, req.Formula).Text()
	}
	if recording {
		s := makeSample(key, d, mode, req.Formula, res, err, time.Since(t0), tally, planTally)
		s.AllocBytes, s.AllocObjects, s.AllocSampled = allocBytes, allocObjs, allocSampled
		qstats.Record(s)
	}
	return res, err
}

// evalMode dispatches the evaluation proper; Eval wraps it with the span
// and the qstats recording.
func evalMode(ctx context.Context, d DomainInfo, st *State, mode EvalMode, req Request) (*Result, error) {
	switch mode {
	case ModeActive:
		if req.Profile {
			ans, prof, err := query.EvalActiveProfiledCtx(ctx, d.Domain, st, req.Formula)
			return packResult(ans, prof, err)
		}
		ans, err := query.EvalActiveCtx(ctx, d.Domain, st, req.Formula)
		return packResult(ans, nil, err)
	case ModeEnumerate:
		en, ok := d.Domain.(query.Enumerable)
		if !ok || d.Enumerator == nil {
			return nil, fmt.Errorf("finq: domain %s does not support enumeration", d.Name)
		}
		budget := DefaultBudget
		if req.Budget != nil {
			budget = *req.Budget
		}
		var sink query.RowSink
		if req.OnRow != nil {
			sink = query.RowSink(req.OnRow)
		}
		ans, err := query.EnumerationAnswerSinkCtx(ctx, en, d.Decider, st, req.Formula, budget, sink)
		return packResult(ans, nil, err)
	}
	return nil, fmt.Errorf("finq: Eval: unknown mode %q (want %q or %q)", mode, ModeActive, ModeEnumerate)
}

// maxQueryDisplay bounds the human-readable query string stored per
// registry entry, so pathological formula sizes don't dominate the weight.
const maxQueryDisplay = 120

// makeSample builds the qstats sample for one finished evaluation; Eval
// stamps the allocation fields and records it.
func makeSample(key string, d DomainInfo, mode EvalMode, f *Formula, res *Result, err error, dur time.Duration, tally *deccache.Tally, planTally *plan.Tally) qstats.Sample {
	display := f.String()
	if len(display) > maxQueryDisplay {
		r := []rune(display)
		if len(r) > maxQueryDisplay {
			r = r[:maxQueryDisplay]
		}
		display = string(r) + "…"
	}
	s := qstats.Sample{
		Key:       key,
		Domain:    d.Name,
		Mode:      string(mode),
		Query:     display,
		LatencyUS: dur.Microseconds(),
	}
	if tally != nil {
		s.CacheHits = tally.Hits.Load()
		s.CacheMisses = tally.Misses.Load()
	}
	if planTally != nil {
		s.Plan = string(planTally.Tier())
		s.PlanHits = planTally.Hits.Load()
		s.PlanMisses = planTally.Misses.Load()
	}
	switch {
	case err != nil:
		s.Stopped = "error"
	case res != nil:
		s.Stopped = res.Stopped
	}
	if res != nil && res.Answer != nil && res.Answer.Rows != nil {
		s.Rows = int64(res.Answer.Rows.Len())
	}
	if res != nil && res.Profile != nil {
		for _, ns := range res.Profile.Flatten() {
			s.Nodes = append(s.Nodes, qstats.NodeSample{
				Path: ns.Path, Op: ns.Op, Evals: ns.Evals, True: ns.True, Range: int64(ns.Range),
			})
		}
	}
	return s
}

// packResult folds an evaluator's (answer, error) pair into the Result
// contract: cancellations with a partial answer become partial results,
// budget-stopped answers are marked partial, other errors pass through.
func packResult(ans *Answer, prof *Profile, err error) (*Result, error) {
	if err != nil {
		var stopped string
		switch {
		case errors.Is(err, ErrClientGone):
			// A row sink reported the consumer gone (streaming write
			// failure); the rows delivered so far are the partial answer.
			stopped = "client-gone"
		case errors.Is(err, context.DeadlineExceeded):
			stopped = "deadline"
		case errors.Is(err, context.Canceled):
			stopped = "canceled"
		}
		if stopped != "" && ans != nil {
			return &Result{Answer: ans, Profile: prof, Partial: true, Stopped: stopped}, nil
		}
		return nil, err
	}
	res := &Result{Answer: ans, Profile: prof}
	if ans != nil && !ans.Complete {
		res.Partial, res.Stopped = true, "budget"
	}
	return res, nil
}

// Profile is a per-query EXPLAIN report: a tree mirroring the formula with
// per-node eval counts, row cardinalities, quantifier range sizes, and
// wall time, rendered by its Text and JSON methods.
type Profile = query.Profile

// EnumerationBudget bounds ModeEnumerate evaluations (Request.Budget).
type EnumerationBudget = query.EnumerationBudget

// DefaultBudget is a budget suitable for interactive use.
var DefaultBudget = query.DefaultBudget

// Decide decides a pure-domain sentence.
func Decide(d DomainInfo, sentence *Formula) (bool, error) {
	return d.Decider.Decide(sentence)
}

// Eliminate returns a quantifier-free equivalent of f over the domain.
func Eliminate(d DomainInfo, f *Formula) (*Formula, error) {
	return d.Eliminator.Eliminate(f)
}

// SafeRange runs the syntactic range-restriction analysis.
func SafeRange(scheme *Scheme, f *Formula) SafeRangeReport {
	return core.SafeRange(scheme, f)
}

// Finitize returns the Theorem 2.2 finitization of f (meaningful over
// extensions of N<).
func Finitize(f *Formula) *Formula { return core.Finitize(f) }

// RelativeSafety decides (or semi-decides) whether f's answer is finite in
// state st over the domain: decidable for eq, nless, presburger, and nsucc;
// a budgeted semi-decision for traces (Theorem 3.3 makes a decider
// impossible).
func RelativeSafety(d DomainInfo, st *State, f *Formula) (Verdict, error) {
	switch d.Name {
	case "eq":
		finite, err := core.RelativeSafetyEq(st, f)
		return boolVerdict(finite), err
	case "nless", "presburger":
		finite, err := core.RelativeSafetyPresburger(st, f)
		return boolVerdict(finite), err
	case "nsucc":
		finite, err := core.RelativeSafetyNsucc(st, f)
		return boolVerdict(finite), err
	case "zless":
		finite, err := core.RelativeSafetyIntegers(st, f)
		return boolVerdict(finite), err
	case "wordlex":
		finite, err := core.RelativeSafetyWordlex(st, f)
		return boolVerdict(finite), err
	case "traces":
		return core.RelativeSafetyTraces(st, f, core.DefaultTracesBudget)
	}
	return Unknown, fmt.Errorf("finq: no relative-safety procedure for domain %q", d.Name)
}

func boolVerdict(b bool) Verdict {
	if b {
		return Holds
	}
	return Fails
}

// TotalityQuery returns the Theorem 3.1 query M(x) := P(M, c, x) over the
// trace domain, with "c" a database constant.
func TotalityQuery(machineWord string) *Formula { return core.TotalityQuery(machineWord) }

// TotalityScheme returns the one-constant scheme of Theorem 3.1.
func TotalityScheme() *Scheme { return core.TotalityScheme() }

// VerifyTotality decides the Theorem 3.1 equivalence sentence between a
// machine's totality query and a candidate formula; truth certifies the
// machine total whenever the candidate is finite.
func VerifyTotality(machineWord string, candidate *Formula) (bool, error) {
	return core.VerifyTotality(machineWord, candidate)
}

// HaltingToRelativeSafety is the Theorem 3.3 reduction from the halting
// problem to relative safety over T.
func HaltingToRelativeSafety(machineWord, input string) (*Formula, *State, error) {
	return core.HaltingToRelativeSafety(machineWord, input)
}
