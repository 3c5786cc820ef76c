package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	finq "repro"
	"repro/apiv1"
	"repro/client"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
)

// The traced run. It sets the workload up exactly as the measured run
// does, then spends a third of its time on the program's own op untraced
// (the per-op obs counts and the runtime GC figures) and the rest on
// paired windows, in which the benchmark calls each layer's public
// functions itself and records a span around every call. A paired window
// replays the sequence at two levels op by op, the second level half a
// pass behind the first: both see the host at the same moments, so a
// difference between them is not a change in the host's speed, and every
// op is still half a pass of other ops away from its last run, as in the
// program's own passes, so the caches behave as they do there.
//
// The outermost level runs paired with itself with the tracer off (the
// tracing overhead). For serve-mix the levels are wire (typed client),
// handler (the typed client answered by Server.Handler().ServeHTTP into an
// in-memory recorder), and library (the handler's steps, called one by
// one); handler and library run paired with each other.

// span is one timed call. Spans of one op share op; parent indexes the
// enclosing span, -1 for the op's root. An outside span belongs to an op
// but was timed after the op's root span ended, so it is no part of the
// op's time.
type span struct {
	Level   label `json:"level"`
	Name    label `json:"name"`
	Start   int64 `json:"start_ns"`
	End     int64 `json:"end_ns"`
	Parent  int   `json:"parent"`
	Op      int   `json:"op"`
	Outside bool  `json:"outside,omitempty"`
}

// label names a level or a span. Spans hold labels rather than strings,
// so the span buffer holds no pointers and costs the garbage collector
// nothing to scan, however long the run.
type label uint8

var (
	labels  []string
	labelOf = map[string]label{}
)

func labelFor(name string) label {
	l, ok := labelOf[name]
	if !ok {
		labels = append(labels, name)
		l = label(len(labels) - 1)
		labelOf[name] = l
	}
	return l
}

func (l label) String() string { return labels[l] }

func (l label) MarshalJSON() ([]byte, error) { return json.Marshal(labels[l]) }

// tracer records spans in memory; one goroutine drives it. An off tracer
// records nothing: the same decomposed op then runs untraced, the
// baseline for the tracing overhead.
type tracer struct {
	epoch time.Time
	off   bool
	level string
	spans []span
	stack []int
	op    int
	// after, when set, is a measurement the current op leaves for after
	// its root span has ended (see evaluate).
	after func()
	// firstRow holds each streamed op's time to its first row.
	firstRow []time.Duration
}

func (t *tracer) begin(name string) int {
	if t.off {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Level: labelFor(t.level), Name: labelFor(name), Start: int64(time.Since(t.epoch)), Parent: parent, Op: t.op})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// mark and rewind drop what the tracer recorded since mark.
func (t *tracer) mark() [2]int { return [2]int{len(t.spans), len(t.firstRow)} }

func (t *tracer) rewind(m [2]int) { t.spans, t.firstRow = t.spans[:m[0]], t.firstRow[:m[1]] }

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func()) {
	s := t.begin(name)
	fn()
	t.end(s)
}

// outside times fn as an outside span of op, run at level.
func (t *tracer) outside(op int, level, name string, fn func()) {
	s := span{Level: labelFor(level), Name: labelFor(name), Start: int64(time.Since(t.epoch)), Parent: -1, Op: op, Outside: true}
	fn()
	s.End = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
}

// tracedDecider times every decision the §1.1 loop asks for.
type tracedDecider struct {
	inner domain.Decider
	t     *tracer
}

func (d tracedDecider) Decide(f *logic.Formula) (bool, error) {
	return d.DecideCtx(context.Background(), f)
}

func (d tracedDecider) DecideCtx(ctx context.Context, f *logic.Formula) (bool, error) {
	s := d.t.begin("decide")
	defer d.t.end(s)
	return domain.DecideCtx(ctx, d.inner, f)
}

// planFor looks the plan up, naming the span plan.compile on a cache miss.
func (t *tracer) planFor(ctx context.Context, st *finq.State, dom string, key string, f *finq.Formula) *plan.Plan {
	ctx, tally := plan.WithTally(ctx)
	s := t.begin("plan.lookup")
	p := plan.For(ctx, st.Scheme(), dom, key, f)
	t.end(s)
	if s >= 0 && tally.Misses.Load() > 0 {
		t.spans[s].Name = labelFor("plan.compile")
	}
	return p
}

// activeRange is the active domain plus the formula's constants, the
// range active-domain evaluation quantifies over.
func activeRange(d finq.DomainInfo, st *finq.State, f *finq.Formula) ([]domain.Value, error) {
	rng := append([]domain.Value(nil), st.ActiveDomain()...)
	seen := map[string]bool{}
	for _, v := range rng {
		seen[v.Key()] = true
	}
	for _, c := range f.Constants() {
		v, err := d.Domain.ConstValue(c)
		if err != nil {
			return nil, err
		}
		if !seen[v.Key()] {
			seen[v.Key()] = true
			rng = append(rng, v)
		}
	}
	return rng, nil
}

// evaluate is one evaluation taken apart into its layers: canonical key,
// plan lookup, then plan execution, the §1.1 loop, or the profiling
// interpreter.
func (t *tracer) evaluate(ctx context.Context, d finq.DomainInfo, st *finq.State, f *finq.Formula,
	mode finq.EvalMode, budget *finq.EnumerationBudget, profile bool) (*finq.Answer, error) {

	if st == nil {
		st = finq.NewState(finq.MustScheme(map[string]int{}))
	}
	var key string
	t.timed("logic.key", func() { key = f.CanonicalKey() })
	p := t.planFor(ctx, st, d.Name, key, f)
	var ans *finq.Answer
	var err error
	switch {
	case profile:
		t.timed("query.profile", func() { ans, _, err = query.EvalActiveProfiledCtx(ctx, d.Domain, st, f) })
	case mode == finq.ModeEnumerate:
		name := "query.enumerate"
		if p.Tier() == plan.TierAlgebra {
			// EnumerationAnswerSinkCtx builds the plan's answer table and
			// replays the probe loop against it in one call. The table build
			// is timed again once the op has ended, and aggregate moves that
			// time from query.replay to plan.exec: the op itself runs the
			// plan once, as the program does.
			name = "query.replay"
			if !t.off {
				op, level := t.op, t.level
				t.after = func() { t.outside(op, level, "plan.exec", func() { _, _ = p.AnswerTable(d.Domain, st) }) }
			}
		}
		en := d.Domain.(query.Enumerable)
		dec := tracedDecider{inner: d.Decider, t: t}
		t.timed(name, func() { ans, err = query.EnumerationAnswerSinkCtx(ctx, en, dec, st, f, *budget, nil) })
	case p.Tier() == plan.TierInterp:
		t.timed("query.eval_active", func() { ans, err = query.EvalActiveCtx(ctx, d.Domain, st, f) })
	default:
		var rng []domain.Value
		if rng, err = activeRange(d, st, f); err != nil {
			return nil, err
		}
		var res *plan.Result
		t.timed("plan.exec", func() { res, err = p.EvalActive(ctx, d.Domain, st, rng) })
		if err == nil {
			ans = &finq.Answer{Vars: res.Vars, Rows: res.Rows, Complete: res.Complete}
		}
	}
	return ans, err
}

// tracedOp runs one op at the tracer's level and returns its answer
// check, which first takes any measurement the op left for after its root
// span; measure and paired run it outside the op's timing.
func (e *env) tracedOp(ctx context.Context, t *tracer, o *op) func() error {
	root := t.begin("op")
	var check func() error
	switch t.level {
	case "library":
		check = e.libraryOp(ctx, t, o)
	case "handler":
		check = e.wireCall(ctx, e.handlerCl, o, nil)
	case "wire":
		start, first := time.Now(), time.Duration(-1)
		t.timed("client.roundtrip", func() {
			check = e.wireCall(ctx, e.cl, o, func() { first = time.Since(start) })
		})
		if o.kind == kindStream && !t.off {
			t.firstRow = append(t.firstRow, first)
		}
	}
	t.end(root)
	t.op++
	after := t.after
	t.after = nil
	if after == nil {
		return check
	}
	return func() error {
		after()
		return check()
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// handlerClient is a typed client whose requests go straight into the
// server's handler chain and are answered from an in-memory recorder
// inside a server.handler span: no listener, no connection.
func handlerClient(h http.Handler, t *tracer) *client.Client {
	return client.New("http://finqd", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		req := r.Clone(r.Context())
		req.RequestURI, req.RemoteAddr = r.URL.RequestURI(), "127.0.0.1:0"
		rec := httptest.NewRecorder()
		t.timed("server.handler", func() { h.ServeHTTP(rec, req) })
		return rec.Result(), nil
	})})
}

// libraryOp is one op through the layers' public functions. For the wire
// workload it repeats the handler's steps: decode the body, parse the
// state and formula, evaluate, encode the response.
func (e *env) libraryOp(ctx context.Context, t *tracer, o *op) func() error {
	d := e.domains[o.domain]
	if !e.w.wire {
		ans, err := t.evaluate(ctx, d, o.state.stateOrNil(), o.f, o.mode, o.budget, o.profile)
		return func() error {
			if err != nil {
				return err
			}
			return checkAnswer(o, d, ans)
		}
	}
	var err error
	var raw json.RawMessage
	var forms []string
	var modes []string
	var budget *finq.EnumerationBudget
	if o.kind == kindBatch {
		var req apiv1.BatchRequest
		t.timed("apiv1.decode", func() { err = json.Unmarshal(o.body, &req) })
		raw = req.State
		for _, it := range req.Items {
			forms, modes = append(forms, it.Formula), append(modes, it.Mode)
		}
	} else {
		var req apiv1.EvalRequest
		t.timed("apiv1.decode", func() { err = json.Unmarshal(o.body, &req) })
		raw, forms, modes = req.State, []string{req.Formula}, []string{req.Mode}
		if req.Budget != nil {
			budget = &finq.EnumerationBudget{Rows: req.Budget.Rows, Probe: req.Budget.Probe}
		}
	}
	if err != nil {
		return fails(err)
	}
	var st *finq.State
	t.timed("codec.state_parse", func() { st, err = finq.ParseState(d, raw) })
	if err != nil {
		return fails(err)
	}
	results := make([]*finq.ResultJSON, len(forms))
	for i, src := range forms {
		var f *finq.Formula
		t.timed("parser.parse", func() { f, err = d.Parse(src) })
		if err != nil {
			return fails(err)
		}
		ans, err := t.evaluate(ctx, d, st, f, finq.EvalMode(modes[i]), budget, false)
		if err != nil {
			return fails(err)
		}
		t.timed("codec.encode", func() { results[i] = finq.EncodeResult(d, &finq.Result{Answer: ans}) })
	}
	var out any = results[0]
	if o.kind == kindBatch {
		resp := apiv1.BatchResponse{}
		for _, r := range results {
			resp.Items = append(resp.Items, apiv1.BatchItemResult{Result: r})
		}
		out = resp
	}
	var body []byte
	t.timed("codec.encode", func() { body, err = json.Marshal(out) })
	return func() error {
		if err != nil {
			return err
		}
		return checkBody(o, body)
	}
}

// checkBody checks a JSON response body as the handler would write it.
func checkBody(o *op, body []byte) error {
	if o.kind == kindBatch {
		var resp apiv1.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkBatch(o, &resp)
	}
	var resp apiv1.EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	return checkJSON(o, &resp)
}

// ---------------------------------------------------------------------
// The run and its aggregation.

// levelStats is the per-op aggregate of one traced level.
type levelStats struct {
	ops    int
	opTime time.Duration            // Σ root span durations
	self   map[string]time.Duration // Σ self time by span name
	calls  map[string]int
}

func aggregate(spans []span) map[string]*levelStats {
	out := map[string]*levelStats{}
	childTime := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	type opKey struct {
		level string
		op    int
	}
	replaySelf, tableTime := map[opKey]time.Duration{}, map[opKey]time.Duration{}
	for i, s := range spans {
		level, name := s.Level.String(), s.Name.String()
		ls := out[level]
		if ls == nil {
			ls = &levelStats{self: map[string]time.Duration{}, calls: map[string]int{}}
			out[level] = ls
		}
		k := opKey{level, s.Op}
		if s.Outside {
			tableTime[k] += time.Duration(s.End - s.Start)
			continue
		}
		self := time.Duration(s.End - s.Start - childTime[i])
		ls.self[name] += self
		ls.calls[name]++
		switch name {
		case "op":
			ls.ops++
			ls.opTime += time.Duration(s.End - s.Start)
		case "query.replay":
			replaySelf[k] += self
		}
	}
	// query.replay's self time includes the answer-table build that was
	// timed again outside the op: that share is plan execution.
	for k, d := range tableTime {
		moved := min(d, replaySelf[k])
		ls := out[k.level]
		ls.self["query.replay"] -= moved
		ls.self["plan.exec"] += moved
		ls.calls["plan.exec"]++
	}
	return out
}

func runTraced(cfg config) (*result, error) {
	s, err := startSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.env.close()
	e := s.env
	ctx := context.Background()
	budget := seconds(cfg.seconds)

	// The program's own op, untraced: the per-op counts and GC figures.
	base := measure(budget/3, 1, e.w.ops, segmentLen(e.w), func(o *op) func() error { return e.call(ctx, o) })

	t := &tracer{epoch: time.Now()}
	at := func(tr *tracer, level string) func(*op) func() error {
		return func(o *op) func() error {
			tr.level = level
			return e.tracedOp(ctx, tr, o)
		}
	}
	outer, levels, pairBudget := "library", []string{"library"}, budget*2/3
	if e.w.wire {
		outer, levels, pairBudget = "wire", []string{"wire", "handler", "library"}, budget/3
		e.handlerCl = handlerClient(e.handler, t)
	}
	// The outermost level with the tracer off, paired with the same level
	// traced; the server's own latency histograms time the wire requests.
	srv0 := serverLatency()
	overhead := paired(pairBudget, e.w.ops, t, at(&tracer{off: true}, outer), at(t, outer))
	srv := serverLatency().sub(srv0)
	windows := []*pairWindow{overhead}
	if e.w.wire {
		windows = append(windows, paired(pairBudget, e.w.ops, t, at(t, "handler"), at(t, "library")))
	}
	attempted, failed := base.ops, base.failed
	for _, pw := range windows {
		attempted += pw.ops
		failed += pw.failed
	}
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, t.spans); err != nil {
			return nil, err
		}
	}
	agg := aggregate(t.spans)
	overheadPct := 100 * (1 - float64(overhead.wall[0])/float64(overhead.wall[1]))
	m := layerMetrics(base, agg, t, outer, overheadPct, srv)

	fmt.Printf("workload %s seed %d: traced run, %d spans\n", cfg.workload, cfg.seed, len(t.spans))
	fmt.Printf("first measured pass: %s\n", hitRatios(base.firstPass))
	fmt.Printf("last measured pass:  %s\n", hitRatios(base.lastPass))
	fmt.Printf("ms/op by window: program op %.4f; paired: %s untraced %.4f, %s traced %.4f",
		ms(base.wall)/float64(base.ops), outer, overhead.msPerOp(0), outer, overhead.msPerOp(1))
	if e.w.wire {
		fmt.Printf("; paired: handler traced %.4f, library traced %.4f", windows[1].msPerOp(0), windows[1].msPerOp(1))
		fmt.Printf("; server-side %.4f per wire request", float64(srv.us)/1000/float64(srv.requests))
	}
	fmt.Println()
	printSelfTimes(agg, levels)
	counts, err := json.Marshal(perOp(base.counts, base.ops))
	if err != nil {
		return nil, err
	}
	fmt.Printf("counts %s\n", counts)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// pairWindow is a paired window: the op count and failures over both
// levels, and each level's op time.
type pairWindow struct {
	ops, failed int // lead-in included
	timed       int // both levels, lead-in excluded
	wall        [2]time.Duration
}

func (pw *pairWindow) msPerOp(level int) float64 { return ms(pw.wall[level]) / float64(pw.timed/2) }

// paired runs whole passes over ops until at least d of op time has
// elapsed, op by op at two levels: step i runs ops[i] at level a, then
// ops[i+n/2] at level b. Each call is timed on its own, and the answers
// are checked after both are timed. An untimed lead-in of half a pass of
// steps first leaves every op a whole pass of other ops away from its
// last run, as in the steady state; t drops the lead-in's spans.
func paired(d time.Duration, ops []*op, t *tracer, a, b func(*op) func() error) *pairWindow {
	pw := &pairWindow{}
	n := len(ops)
	failures := 0
	check := func(c func() error) {
		pw.ops++
		if err := c(); err != nil {
			pw.failed++
			if failures++; failures <= 3 {
				fmt.Fprintln(os.Stderr, "finqbench: op failed:", err)
			}
		}
	}
	m := t.mark()
	for i := n / 2; i < n; i++ {
		checkA, checkB := a(ops[i]), b(ops[(i+n/2)%n])
		check(checkA)
		check(checkB)
	}
	t.rewind(m)
	leadIn := pw.ops
	for pw.wall[0]+pw.wall[1] < d {
		for i := range ops {
			t0 := time.Now()
			checkA := a(ops[i])
			t1 := time.Now()
			checkB := b(ops[(i+n/2)%n])
			pw.wall[0] += t1.Sub(t0)
			pw.wall[1] += time.Since(t1)
			check(checkA)
			check(checkB)
		}
	}
	pw.timed = pw.ops - leadIn
	return pw
}

// serverTime is the server's own time on /v1/eval and /v1/eval/batch
// requests, from its per-endpoint latency histograms (whole microseconds
// per request).
type serverTime struct{ us, requests int64 }

func serverLatency() serverTime {
	var s serverTime
	h := obs.Take().Histograms
	for _, name := range []string{"server.eval.latency_us", "server.batch.latency_us"} {
		s.us += h[name].Sum
		s.requests += h[name].Count
	}
	return s
}

func (s serverTime) sub(o serverTime) serverTime {
	return serverTime{s.us - o.us, s.requests - o.requests}
}

// perOp divides counter deltas by the op count.
func perOp(c map[string]int64, ops int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range c {
		out[k] = float64(v) / float64(ops)
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints each level's self-time breakdown: the layers'
// self times plus "other" (the op's own untimed time) add up to the op
// time.
func printSelfTimes(agg map[string]*levelStats, levels []string) {
	for _, lv := range levels {
		ls := agg[lv]
		n := float64(ls.ops)
		fmt.Printf("level %s: %d ops, op %.4f ms\n", lv, ls.ops, ms(ls.opTime)/n)
		names := make([]string, 0, len(ls.self))
		for name := range ls.self {
			names = append(names, name)
		}
		sort.Strings(names)
		var sum time.Duration
		for _, name := range names {
			label := name
			if name == "op" {
				label = "other"
			}
			sum += ls.self[name]
			fmt.Printf("  %-20s self %10.4f ms/op  %5.1f%%  calls/op %.2f\n", label, ms(ls.self[name])/n,
				100*float64(ls.self[name])/float64(ls.opTime), float64(ls.calls[name])/n)
		}
		fmt.Printf("  %-20s      %10.4f ms/op (= op time)\n", "sum", ms(sum)/n)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics builds the per-layer metrics. Counts come from the
// program's untraced passes, times from the traced ones, as per-op means.
func layerMetrics(base *window, agg map[string]*levelStats, t *tracer, outer string, overheadPct float64, srv serverTime) map[string]metric {
	c := base.counts
	ops := int64(base.ops)
	lib := agg["library"]
	n := float64(lib.ops)
	perLib := func(name string) time.Duration { return time.Duration(float64(lib.self[name]) / n) }
	meanOp := func(lv string) time.Duration {
		if agg[lv] == nil {
			return 0
		}
		return time.Duration(float64(agg[lv].opTime) / float64(agg[lv].ops))
	}
	var firstRow time.Duration
	if len(t.firstRow) > 0 {
		var sum time.Duration
		for _, d := range t.firstRow {
			sum += d
		}
		firstRow = sum / time.Duration(len(t.firstRow))
	}
	// Transport is the wire op minus the server's own time on the request,
	// both from the same window; middleware is the server.handler span
	// minus the library op, run paired with it.
	var handler, transport, middleware time.Duration
	if h := agg["handler"]; h != nil {
		handler = time.Duration(float64(h.self["server.handler"]) / float64(h.ops))
		transport = meanOp("wire") - time.Duration(float64(srv.us)*float64(time.Microsecond)/float64(srv.requests))
		middleware = handler - meanOp("library")
	}
	compiles := c["plan.compile.algebra"] + c["plan.compile.closure"] + c["plan.compile.interp"]
	return map[string]metric{
		"plan.lookup_us":                    {us(perLib("plan.lookup")), "us"},
		"plan.compile_us":                   {us(perLib("plan.compile")), "us"},
		"plan.hit_ratio":                    {ratio(c["plan.cache.hits"], c["plan.cache.hits"]+c["plan.cache.misses"]), "ratio"},
		"plan.compiles_per_op":              {ratio(compiles, ops), "count"},
		"plan.exec_ms":                      {ms(perLib("plan.exec")), "ms"},
		"query.replay_ms":                   {ms(perLib("query.replay")), "ms"},
		"query.probes_per_row":              {ratio(c["query.enumerate.probes"], c["query.enumerate.rows"]), "count"},
		"query.decisions_per_row":           {ratio(c["query.enumerate.decisions"], c["query.enumerate.rows"]), "count"},
		"query.rows_per_op":                 {ratio(c["query.enumerate.rows"], ops), "count"},
		"query.profile_ms":                  {ms(perLib("query.profile")), "ms"},
		"decide.ms":                         {ms(perLib("decide")), "ms"},
		"decide.calls_per_op":               {float64(lib.calls["decide"]) / n, "count"},
		"deccache.hit_ratio":                {ratio(c["deccache.hits"], c["deccache.hits"]+c["deccache.misses"]), "ratio"},
		"deccache.evictions_per_op":         {ratio(c["deccache.evictions"], ops), "count"},
		"qe.presburger.eliminations_per_op": {ratio(c["qe.presburger.eliminations"], ops), "count"},
		"qe.presburger.blowups_per_op":      {ratio(c["qe.presburger.blowups"], ops), "count"},
		"runtime.gc_cpu_ms_per_op":          {base.gcCPU * 1000 / float64(ops), "ms"},
		"runtime.gc_cycles_per_op":          {float64(base.gcCycles) / float64(ops), "count"},
		"apiv1.decode_us":                   {us(perLib("apiv1.decode")), "us"},
		"codec.state_parse_us":              {us(perLib("codec.state_parse")), "us"},
		"parser.parse_us":                   {us(perLib("parser.parse")), "us"},
		"logic.key_us":                      {us(perLib("logic.key")), "us"},
		"codec.encode_us":                   {us(perLib("codec.encode")), "us"},
		"server.handler_us":                 {us(handler), "us"},
		"server.middleware_us":              {us(middleware), "us"},
		"client.roundtrip_us":               {us(meanOp("wire")), "us"},
		"transport_us":                      {us(transport), "us"},
		"stream.first_row_ms":               {ms(firstRow), "ms"},
		"other_ms":                          {ms(perLib("op")), "ms"},
		"op_ms":                             {ms(meanOp(outer)), "ms"},
		"trace.overhead_pct":                {overheadPct, "%"},
	}
}
