// Package apiv1 is the single definition of finqd's /v1 wire contract:
// every request and response body, the error envelope with its closed
// code set, the streaming frame/line types, and the endpoint table that
// docs/API.md is generated from (scripts/apidocgen.go).
//
// The server (internal/server), the typed client (client), the load
// generator (cmd/finqload), and finqd -smoke all build against these
// types, so the wire format is defined once instead of per-handler.
//
// Answer and result bodies reuse the library's wire forms
// (finq.AnswerJSON, finq.ResultJSON): the HTTP layer adds envelopes and
// transport semantics, not a second encoding of answers.
//
// Every request additionally carries W3C trace context: the server reads
// the `traceparent` (and `tracestate`) request header, parses it strictly
// but never rejects it (a malformed or absent header mints a fresh root),
// and echoes the request span's own position as a `traceparent` response
// header on every response — errors, batch responses, and stream
// trailers included. Callers that forward work parent the next hop on
// exactly the echoed position; `trace_id` appears alongside `request_id`
// in error envelopes, stream trailers, the access log, and /debug/slow
// captures.
package apiv1

import (
	"encoding/json"

	finq "repro"
)

// EvalRequest is the body of POST /v1/eval. Formula syntax, state format,
// and budget semantics are exactly the library's: the request is a wire
// form of finq.Request.
type EvalRequest struct {
	// Domain names a registered domain (GET /v1/domains lists them).
	Domain string `json:"domain"`
	// Formula is the query in the domain's concrete syntax.
	Formula string `json:"formula"`
	// State is the database state in the stateJSON format; omitted means
	// the empty state.
	State json.RawMessage `json:"state,omitempty"`
	// Mode is "active" (default) or "enumerate".
	Mode string `json:"mode,omitempty"`
	// Budget bounds enumerate mode; omitted means the default budget.
	Budget *Budget `json:"budget,omitempty"`
	// Profile asks for a per-node EXPLAIN profile in the response.
	Profile bool `json:"profile,omitempty"`
}

// Budget is the wire form of an enumeration budget.
type Budget struct {
	// Rows caps the number of answer rows produced.
	Rows int `json:"rows"`
	// Probe caps candidate tuples tested per row.
	Probe int `json:"probe"`
}

// EvalResponse is the body of a non-streaming POST /v1/eval answer: the
// library's result wire form (answer, optional profile, partial/stopped).
type EvalResponse = finq.ResultJSON

// Answer is the wire form of a query answer, as embedded in EvalResponse.
type Answer = finq.AnswerJSON

// BatchRequest is the body of POST /v1/eval/batch: many queries evaluated
// against one shared state in one request, amortizing state parsing, the
// handler chain, and per-request overhead. Items run in order under one
// per-batch deadline; an item's failure (bad formula, evaluation error)
// is reported on that item without failing the batch.
type BatchRequest struct {
	// Domain names the registered domain every item evaluates over.
	Domain string `json:"domain"`
	// State is the shared database state, parsed once for the batch;
	// omitted means the empty state.
	State json.RawMessage `json:"state,omitempty"`
	// Items are the queries to evaluate, in order.
	Items []BatchItem `json:"items"`
}

// BatchItem is one query of a batch.
type BatchItem struct {
	// Formula is the query in the domain's concrete syntax.
	Formula string `json:"formula"`
	// Mode is "active" (default) or "enumerate".
	Mode string `json:"mode,omitempty"`
	// Budget bounds enumerate mode; omitted means the default budget.
	Budget *Budget `json:"budget,omitempty"`
	// Profile asks for a per-node EXPLAIN profile on this item.
	Profile bool `json:"profile,omitempty"`
}

// BatchResponse is the body of a POST /v1/eval/batch answer.
type BatchResponse struct {
	// Items mirror the request's items by position: each carries a result
	// or an item-scoped error, never both.
	Items []BatchItemResult `json:"items"`
	// Stopped is "" when every item ran, or "deadline" when the per-batch
	// deadline expired first — items after the cutoff carry a "deadline"
	// error, items before it keep their results (the batch analogue of a
	// partial evaluation result).
	Stopped string `json:"stopped,omitempty"`
}

// BatchItemResult is one item's outcome.
type BatchItemResult struct {
	// Result is the item's evaluation result (possibly partial), present
	// exactly when Error is absent.
	Result *EvalResponse `json:"result,omitempty"`
	// Error reports an item-scoped failure: a formula that does not parse,
	// an evaluation error, or the batch deadline expiring before the item
	// ran. Its code is from the same closed set as top-level errors.
	Error *Error `json:"error,omitempty"`
	// SpanID is the item's span ID (16 lowercase hex chars) when the
	// request carried a trace and the flight recorder was armed: each
	// batch item evaluates under its own child span of the request span,
	// and this ID locates the item's subtree in the exported trace.
	SpanID string `json:"span_id,omitempty"`
}

// DecideRequest is the body of POST /v1/decide.
type DecideRequest struct {
	// Domain names a registered domain.
	Domain string `json:"domain"`
	// Sentence is a pure-domain sentence (no free variables, no database
	// relations) in the domain's concrete syntax.
	Sentence string `json:"sentence"`
}

// DecideResponse is its answer.
type DecideResponse struct {
	// Truth is the sentence's truth value in the domain.
	Truth bool `json:"truth"`
}

// QERequest is the body of POST /v1/qe.
type QERequest struct {
	// Domain names a registered domain.
	Domain string `json:"domain"`
	// Formula is the formula to quantifier-eliminate.
	Formula string `json:"formula"`
}

// QEResponse carries the quantifier-free equivalent, rendered in the
// domain's concrete syntax.
type QEResponse struct {
	// Formula is the quantifier-free equivalent.
	Formula string `json:"formula"`
}

// SafetyRequest is the body of POST /v1/safety.
type SafetyRequest struct {
	// Domain names a registered domain.
	Domain string `json:"domain"`
	// Formula is the query to analyze.
	Formula string `json:"formula"`
	// State is the database state the analysis is relative to; omitted
	// means the empty state.
	State json.RawMessage `json:"state,omitempty"`
}

// SafetyResponse reports the relative-safety verdict: "holds" (the answer
// is finite in this state), "fails", or "unknown" (the budgeted
// semi-decision over the trace domain gave up).
type SafetyResponse struct {
	// Verdict is "holds", "fails", or "unknown".
	Verdict finq.Verdict `json:"verdict"`
}

// Domain is one entry of GET /v1/domains.
type Domain struct {
	// Name is the domain's registry name ("eq", "presburger", …).
	Name string `json:"name"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// DomainsResponse is the body of GET /v1/domains.
type DomainsResponse = []Domain

// QueryStatsResponse is the body of GET /v1/stats/queries: the top-K
// per-query aggregates from the qstats registry. Each entry's shape is
// the registry's EntryView (key, domain, mode, latency histogram, rows,
// stop reasons, cache and plan-cache traffic, allocation aggregates).
type QueryStatsResponse struct {
	// By is the ordering that produced the list: "latency", "count",
	// "selectivity", or "allocs".
	By string `json:"by"`
	// Queries are the entries, most significant first.
	Queries json.RawMessage `json:"queries"`
}

// VersionResponse is the body of GET /v1/version: the build identity the
// binary embeds, so profiles, traces, and stats snapshots can be pinned
// to the exact build that produced them.
type VersionResponse struct {
	// Version is the module version.
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version,omitempty"`
	// VCSRevision is the VCS commit the binary was built from.
	VCSRevision string `json:"vcs_revision,omitempty"`
	// VCSTime is the commit timestamp.
	VCSTime string `json:"vcs_time,omitempty"`
	// Modified reports uncommitted changes at build time.
	Modified bool `json:"modified,omitempty"`
	// Line is the one-line rendering the binary itself prints.
	Line string `json:"line"`
}

// Health is the body of GET /healthz and GET /readyz.
type Health struct {
	// Status is "ok" (healthz), "ready", or "draining" (readyz).
	Status string `json:"status"`
}
