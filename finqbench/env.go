package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"time"

	finq "repro"
	"repro/apiv1"
	"repro/client"
	"repro/internal/db"
	"repro/internal/server"
)

// env is a workload made ready to run: states built, formulas parsed or
// request bodies encoded, and for the wire workload a server listening on
// 127.0.0.1 with the typed client pointed at it.
type env struct {
	w       *workload
	domains map[string]finq.DomainInfo

	srv     *server.Server
	handler http.Handler
	cl      *client.Client
	tr      *http.Transport
	// handlerCl answers from the handler chain in memory (traced run).
	handlerCl *client.Client
}

// setUp builds the environment: the inputs the program receives, in the
// form a library caller or a wire client would hold them.
func setUp(w *workload) (*env, error) {
	e := &env{w: w, domains: map[string]finq.DomainInfo{}}
	for _, o := range w.ops {
		if err := e.build(o); err != nil {
			return nil, err
		}
	}
	if !w.wire {
		return e, nil
	}
	// The posture finqd ships with, from its flag defaults; the access log
	// goes to io.Discard.
	e.srv = server.New(server.Config{
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		SLOLatency:         time.Second,
		SLOLatencyTarget:   0.99,
		SLOErrorTarget:     0.999,
		SLOTick:            10 * time.Second,
		SLOFastWindow:      time.Minute,
		SLOSlowWindow:      10 * time.Minute,
		SLOTripBurn:        8,
		ProfileCPUDuration: 2 * time.Second,
		ProfileRing:        8,
		ProfileCooldown:    5 * time.Minute,
	})
	addr, err := e.srv.Start()
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	e.handler = e.srv.Handler()
	e.tr = &http.Transport{MaxIdleConnsPerHost: 1}
	e.cl = client.New("http://"+addr, &http.Client{Transport: e.tr})
	return e, nil
}

// close stops the server and drops idle connections.
func (e *env) close() {
	if e.srv == nil {
		return
	}
	e.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // the run's results are already complete
}

func (e *env) domain(name string) (finq.DomainInfo, error) {
	if d, ok := e.domains[name]; ok {
		return d, nil
	}
	d, err := finq.Lookup(name)
	if err != nil {
		return d, err
	}
	e.domains[name] = d
	return d, nil
}

// build prepares one op (once; ops repeat within a pass).
func (e *env) build(o *op) error {
	if o.f != nil || o.body != nil {
		return nil
	}
	d, err := e.domain(o.domain)
	if err != nil {
		return err
	}
	if o.state != nil && o.state.st == nil {
		if err := buildState(d, o.state); err != nil {
			return err
		}
	}
	if !e.w.wire {
		o.f, err = d.Parse(o.formula)
		if err != nil {
			return fmt.Errorf("%s: parsing %q: %w", o.tmpl, o.formula, err)
		}
		return nil
	}
	switch o.kind {
	case kindBatch:
		o.body, err = json.Marshal(batchRequest(o))
	default:
		o.body, err = json.Marshal(evalRequest(o))
	}
	return err
}

func evalRequest(o *op) apiv1.EvalRequest {
	req := apiv1.EvalRequest{Domain: o.domain, Formula: o.formula, State: o.state.raw, Mode: string(o.mode)}
	if o.budget != nil {
		req.Budget = &apiv1.Budget{Rows: o.budget.Rows, Probe: o.budget.Probe}
	}
	return req
}

func batchRequest(o *op) apiv1.BatchRequest {
	req := apiv1.BatchRequest{Domain: o.domain, State: o.state.raw}
	for _, it := range o.items {
		req.Items = append(req.Items, apiv1.BatchItem{Formula: it.formula, Mode: string(it.mode)})
	}
	return req
}

// buildState builds the library state and its wire form.
func buildState(d finq.DomainInfo, s *stateData) error {
	arities := map[string]int{}
	wire := map[string][][]string{}
	for name, rows := range s.rels {
		arities[name] = len(rows[0])
		cells := make([][]string, len(rows))
		for i, row := range rows {
			cells[i] = make([]string, len(row))
			for j, v := range row {
				cells[i][j] = fmt.Sprint(v)
			}
		}
		wire[name] = cells
	}
	scheme, err := finq.NewScheme(arities)
	if err != nil {
		return err
	}
	st := finq.NewState(scheme)
	for name, rows := range s.rels {
		for _, row := range rows {
			vals := make([]finq.Value, len(row))
			for j, v := range row {
				vals[j] = finq.Nat(v)
			}
			if err := st.Insert(name, vals...); err != nil {
				return err
			}
		}
	}
	raw, err := json.Marshal(map[string]any{"relations": wire})
	if err != nil {
		return err
	}
	s.st, s.raw = st, raw
	return nil
}

// call performs one op the way a user of the system would — finq.Eval
// for the library workloads, the typed client for the wire workload — and
// returns the check of its answer, to be run once the op is timed.
func (e *env) call(ctx context.Context, o *op) (check func() error) {
	if e.w.wire {
		return e.wireCall(ctx, e.cl, o, nil)
	}
	res, err := finq.Eval(ctx, finq.Request{
		Domain: o.domain, State: o.state.stateOrNil(), Formula: o.f,
		Mode: o.mode, Budget: o.budget, Profile: o.profile,
	})
	if err != nil {
		return fails(err)
	}
	return func() error { return checkResult(o, e.domains[o.domain], res) }
}

// wireCall sends one op through the typed client cl and returns the check
// of its answer. On a streamed op, firstRow (when not nil) is called as the
// first row arrives.
func (e *env) wireCall(ctx context.Context, cl *client.Client, o *op, firstRow func()) func() error {
	switch o.kind {
	case kindBatch:
		resp, err := cl.EvalBatch(ctx, batchRequest(o))
		if err != nil {
			return fails(err)
		}
		return func() error { return checkBatch(o, resp) }
	case kindStream:
		var rows [][]string
		sr, err := cl.EvalStream(ctx, evalRequest(o), o.encoding, func(row []string) error {
			if len(rows) == 0 && firstRow != nil {
				firstRow()
			}
			rows = append(rows, row)
			return nil
		})
		if err != nil {
			return fails(err)
		}
		return func() error { return checkStream(o, sr, rows) }
	}
	resp, err := cl.Eval(ctx, evalRequest(o))
	if err != nil {
		return fails(err)
	}
	return func() error { return checkJSON(o, resp) }
}

func fails(err error) func() error { return func() error { return err } }

// run performs one op and checks its answer.
func (e *env) run(ctx context.Context, o *op) error { return e.call(ctx, o)() }

func (s *stateData) stateOrNil() *finq.State {
	if s == nil {
		return nil
	}
	return s.st
}

// ---------------------------------------------------------------------
// Answer checks against the generator's expected answers.

var errPartial = errors.New("partial answer")

func joinRow(cells []string) string { return strings.Join(cells, ",") }

func compareRows(o *op, vars []string, got []string) error {
	if !reflect.DeepEqual(vars, o.vars) {
		return fmt.Errorf("%s: columns %v, want %v", o.tmpl, vars, o.vars)
	}
	sort.Strings(got)
	if len(got) != len(o.want) {
		return fmt.Errorf("%s: %d rows, want %d (%s)", o.tmpl, len(got), len(o.want), o.formula)
	}
	for i := range got {
		if got[i] != o.want[i] {
			return fmt.Errorf("%s: row %q, want %q (%s)", o.tmpl, got[i], o.want[i], o.formula)
		}
	}
	return nil
}

// relationRows renders a relation's tuples as expected-row strings.
func relationRows(d finq.DomainInfo, rel *db.Relation) []string {
	out := make([]string, 0, rel.Len())
	cells := []string{}
	for _, t := range rel.Tuples() {
		cells = cells[:0]
		for _, v := range t {
			cells = append(cells, d.Domain.ConstName(v))
		}
		out = append(out, joinRow(cells))
	}
	return out
}

func checkAnswer(o *op, d finq.DomainInfo, ans *finq.Answer) error {
	if ans == nil || !ans.Complete {
		return fmt.Errorf("%s: %w", o.tmpl, errPartial)
	}
	return compareRows(o, ans.Vars, relationRows(d, ans.Rows))
}

func checkResult(o *op, d finq.DomainInfo, res *finq.Result) error {
	if res.Partial {
		return fmt.Errorf("%s: %w (stopped %s)", o.tmpl, errPartial, res.Stopped)
	}
	return checkAnswer(o, d, res.Answer)
}

func checkJSON(o *op, res *apiv1.EvalResponse) error {
	if res.Partial || res.Answer == nil || !res.Answer.Complete {
		return fmt.Errorf("%s: %w", o.tmpl, errPartial)
	}
	got := make([]string, len(res.Answer.Rows))
	for i, row := range res.Answer.Rows {
		got[i] = joinRow(row)
	}
	return compareRows(o, res.Answer.Vars, got)
}

func checkBatch(o *op, resp *apiv1.BatchResponse) error {
	if len(resp.Items) != len(o.items) {
		return fmt.Errorf("batch: %d items, want %d", len(resp.Items), len(o.items))
	}
	for i, it := range resp.Items {
		if it.Error != nil {
			return fmt.Errorf("batch item %d: %s", i, it.Error.Message)
		}
		if err := checkJSON(o.items[i], it.Result); err != nil {
			return err
		}
	}
	return nil
}

func checkStream(o *op, sr *client.StreamResult, rows [][]string) error {
	if !sr.Trailer.Complete || sr.Trailer.Partial || sr.Trailer.Rows != int64(len(rows)) {
		return fmt.Errorf("%s: %w (trailer %+v)", o.tmpl, errPartial, sr.Trailer)
	}
	got := make([]string, len(rows))
	for i, row := range rows {
		got[i] = joinRow(row)
	}
	return compareRows(o, sr.Vars, got)
}
