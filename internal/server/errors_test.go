package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/apiv1"
)

// decodeEnvelope asserts a response body is the uniform error envelope
// with a code from the closed set and a request ID, and returns it.
func decodeEnvelope(t *testing.T, data []byte) apiv1.ErrorEnvelope {
	t.Helper()
	var env apiv1.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v in %s", err, data)
	}
	if !apiv1.ValidCode(env.Error.Code) {
		t.Fatalf("code %q outside the closed set (%s)", env.Error.Code, data)
	}
	if env.Error.Message == "" {
		t.Fatalf("empty error message: %s", data)
	}
	if env.Error.RequestID == "" {
		t.Fatalf("error misses the request ID: %s", data)
	}
	return env
}

// TestErrorEnvelopeEverywhere drives every deterministic error shape the
// service produces and asserts one uniform envelope: the {"error":
// {"code", "message", "request_id"}} body with a code from the closed
// set. (429 sheds and panic 500s are asserted in the middleware tests,
// which arrange those conditions; they go through the same writeError.)
func TestErrorEnvelopeEverywhere(t *testing.T) {
	_, base := startServer(t, Config{MaxBody: 512})

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		status   int
		wantCode string
	}{
		{"method on eval", http.MethodGet, "/v1/eval", "", 405, apiv1.CodeMethodNotAllowed},
		{"method on domains", http.MethodPost, "/v1/domains", "{}", 405, apiv1.CodeMethodNotAllowed},
		{"bad JSON", http.MethodPost, "/v1/eval", "{", 400, apiv1.CodeBadRequest},
		{"unknown field", http.MethodPost, "/v1/eval", `{"formulae": "x = x"}`, 400, apiv1.CodeBadRequest},
		{"workers on eval", http.MethodPost, "/v1/eval", `{"domain": "eq", "formula": "x = x", "workers": 4}`, 400, apiv1.CodeBadRequest},
		{"workers on batch item", http.MethodPost, "/v1/eval/batch",
			`{"domain": "eq", "items": [{"formula": "x = x", "workers": 4}]}`, 400, apiv1.CodeBadRequest},
		{"unknown domain", http.MethodPost, "/v1/eval", `{"domain": "nope", "formula": "x = x"}`, 400, apiv1.CodeBadRequest},
		{"bad formula", http.MethodPost, "/v1/eval", `{"domain": "eq", "formula": "((("}`, 400, apiv1.CodeBadRequest},
		{"oversized body", http.MethodPost, "/v1/eval",
			`{"domain": "eq", "formula": "` + strings.Repeat("x = x & ", 200) + `x = x"}`,
			413, apiv1.CodePayloadTooLarge},
		{"eval failure", http.MethodPost, "/v1/decide", `{"domain": "eq", "sentence": "R(x)"}`, 422, apiv1.CodeEvalFailed},
		{"missing capture", http.MethodGet, "/debug/profiles?id=nope", "", 404, apiv1.CodeNotFound},
		{"bad stats key", http.MethodGet, "/v1/stats/queries?by=bogus", "", 400, apiv1.CodeBadRequest},
		{"stream on active", http.MethodPost, "/v1/eval?stream=1", `{"domain": "eq", "formula": "x = x"}`, 400, apiv1.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req *http.Request
			var err error
			if tc.body == "" {
				req, err = http.NewRequest(tc.method, base+tc.path, nil)
			} else {
				req, err = http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			env := decodeEnvelope(t, data)
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q (%s)", env.Error.Code, tc.wantCode, data)
			}
		})
	}
}
