package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	finq "repro"
	"repro/apiv1"
)

func post(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// startServer runs a real listener (not httptest) so shutdown and draining
// are exercised on the same code path finqd uses.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, "http://" + addr
}

// slowEvalBody is an /v1/eval request that enumerates an infinite answer
// (¬R(x) over Presburger) under a huge budget: it runs until the request
// deadline or the client's context stops it, which is exactly what these
// tests need a long-running request for.
const slowEvalBody = `{
  "domain": "presburger",
  "state": {"relations": {"R": [["5"]]}},
  "formula": "~R(x)",
  "mode": "enumerate",
  "budget": {"rows": 1048576, "probe": 1073741824}
}`

// TestEvalDeadlineMidEnumerationReturnsPartial is the acceptance check: a
// request whose deadline expires mid-enumeration must come back promptly
// with partial-result JSON, not an error and not after the budget.
func TestEvalDeadlineMidEnumerationReturnsPartial(t *testing.T) {
	cfg := Config{EvalTimeout: 150 * time.Millisecond}
	_, base := startServer(t, cfg)
	t0 := time.Now()
	code, data := post(t, http.DefaultClient, base+"/v1/eval", slowEvalBody)
	elapsed := time.Since(t0)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var res finq.ResultJSON
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("bad response JSON: %v in %s", err, data)
	}
	if !res.Partial || res.Stopped != "deadline" {
		t.Fatalf("want partial deadline result, got partial=%v stopped=%q (%s)", res.Partial, res.Stopped, data)
	}
	if res.Answer == nil || res.Answer.Complete {
		t.Fatalf("partial result must carry an incomplete answer: %s", data)
	}
	// Promptness: the evaluator checks between rows and probes, so the
	// response should arrive well before the 1M-row budget would.
	if elapsed > 5*time.Second {
		t.Fatalf("deadline response took %v", elapsed)
	}
}

// TestQueueOverflow429 fills every worker slot and the whole queue with
// slow evaluations, then checks the next request is shed with 429 while
// the slow ones are still running.
func TestQueueOverflow429(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 2, EvalTimeout: 30 * time.Second}
	srv, base := startServer(t, cfg)

	// Saturate workers + queue with requests the clients will cancel at the
	// end of the test; server-side evaluation stops when the clients go away.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers+cfg.QueueDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/eval", strings.NewReader(slowEvalBody))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	// Wait until all saturating requests are admitted (holding every worker
	// slot and queue position) before probing: a probe sent earlier would
	// take a slot itself and run a slow evaluation.
	deadline := time.Now().Add(10 * time.Second)
	for srv.queued.Load() < int64(cfg.Workers+cfg.QueueDepth) {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %d of %d admitted", srv.queued.Load(), cfg.Workers+cfg.QueueDepth)
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, data := post(t, http.DefaultClient, base+"/v1/eval", slowEvalBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: want 429, got %d: %s", code, data)
	}
	if !strings.Contains(string(data), "capacity") {
		t.Fatalf("429 body misses capacity message: %s", data)
	}
	cancel()
	wg.Wait()
}

// TestGracefulShutdownDrains starts a slow (deadline-bounded) eval, begins
// shutdown while it is in flight, and checks that the request still
// completes with its partial result.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg := Config{EvalTimeout: 300 * time.Millisecond}
	srv, base := startServer(t, cfg)

	type outcome struct {
		code int
		body []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := http.DefaultClient.Post(base+"/v1/eval", "application/json", strings.NewReader(slowEvalBody))
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		ch <- outcome{code: resp.StatusCode, body: data, err: err}
	}()

	time.Sleep(50 * time.Millisecond) // let the request reach the evaluator
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", out.err)
	}
	if out.code != http.StatusOK || !strings.Contains(string(out.body), `"stopped":"deadline"`) {
		t.Fatalf("in-flight request: status %d body %s", out.code, out.body)
	}
	// After drain, new connections must be refused.
	if _, err := http.DefaultClient.Post(base+"/v1/eval", "application/json", strings.NewReader(`{}`)); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestNoGoroutineLeak: after a mix of completed, deadline-stopped, and
// client-cancelled requests, the service's goroutine count settles back to
// its baseline.
func TestNoGoroutineLeak(t *testing.T) {
	cfg := Config{Workers: 4, EvalTimeout: 100 * time.Millisecond}
	srv, base := startServer(t, cfg)
	before := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		// Deadline-stopped enumeration.
		code, data := post(t, http.DefaultClient, base+"/v1/eval", slowEvalBody)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, data)
		}
		// Client cancellation mid-request.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/eval", strings.NewReader(slowEvalBody))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		// A quick evaluation that completes normally.
		code, data = post(t, http.DefaultClient, base+"/v1/eval", `{
		  "domain": "eq",
		  "state": {"relations": {"F": [["adam", "abel"], ["adam", "cain"]]}},
		  "formula": "exists y. F(x, y)"}`)
		if code != http.StatusOK {
			t.Fatalf("quick eval status %d: %s", code, data)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across server requests", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicRecovery: a handler panic becomes a JSON 500, not a dropped
// connection, and is counted.
func TestPanicRecovery(t *testing.T) {
	srv := New(Config{})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/boom", srv.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "kaboom") {
		t.Fatalf("status %d body %s", resp.StatusCode, data)
	}
	if mPanics.Value() == 0 {
		t.Fatal("panic not counted")
	}
}

// TestEndpointsRoundTrip exercises decide, qe, safety, domains, and error
// shapes through the HTTP layer.
func TestEndpointsRoundTrip(t *testing.T) {
	_, base := startServer(t, Config{})

	code, data := post(t, http.DefaultClient, base+"/v1/decide",
		`{"domain": "presburger", "sentence": "forall x. exists y. lt(x, y)"}`)
	if code != http.StatusOK || !strings.Contains(string(data), `"truth":true`) {
		t.Fatalf("decide: %d %s", code, data)
	}

	code, data = post(t, http.DefaultClient, base+"/v1/qe",
		`{"domain": "eq", "formula": "exists y. ~(y = x)"}`)
	if code != http.StatusOK || !strings.Contains(string(data), `"formula"`) {
		t.Fatalf("qe: %d %s", code, data)
	}

	code, data = post(t, http.DefaultClient, base+"/v1/safety",
		`{"domain": "eq", "state": {"relations": {"F": [["adam", "abel"]]}}, "formula": "~F(x, y)"}`)
	if code != http.StatusOK || !strings.Contains(string(data), `"verdict":"fails"`) {
		t.Fatalf("safety: %d %s", code, data)
	}

	resp, err := http.Get(base + "/v1/domains")
	if err != nil {
		t.Fatal(err)
	}
	domData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doms []apiv1.Domain
	if err := json.Unmarshal(domData, &doms); err != nil || len(doms) != len(finq.Domains()) {
		t.Fatalf("domains: %v %s", err, domData)
	}

	// Error shapes: unknown domain and unknown field are 400s with a JSON
	// error; GET on a POST endpoint is 405.
	code, data = post(t, http.DefaultClient, base+"/v1/decide", `{"domain": "nope", "sentence": "x = x"}`)
	if code != http.StatusBadRequest || !strings.Contains(string(data), "unknown domain") {
		t.Fatalf("unknown domain: %d %s", code, data)
	}
	code, data = post(t, http.DefaultClient, base+"/v1/decide", `{"domain": "eq", "sentnce": "x = x"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", code, data)
	}
	if resp, err := http.Get(base + "/v1/eval"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/eval: %d", resp.StatusCode)
		}
	}

	// Oversized body → 413.
	big := fmt.Sprintf(`{"domain": "eq", "sentence": %q}`, strings.Repeat("x", 2<<20))
	code, _ = post(t, http.DefaultClient, base+"/v1/decide", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", code)
	}

	// Metrics surface the service families and the shared decision cache.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"server_requests", "server_latency_us", "deccache_hits"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics misses %s", want)
		}
	}
}
