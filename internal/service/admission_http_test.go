package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/service"
)

// The 429 admission taxonomy over the real HTTP surface: each shed cause
// must produce its own typed error body, carry a retry_after_sec hint of at
// least one second, and mirror that hint in the Retry-After header. The
// states are set up deterministically through the gate hooks of
// export_test.go — occupying queue places and seeding the wait predictor by
// hand — so no case depends on timing.

func postEquiv(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/equiv", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestAdmission429Taxonomy(t *testing.T) {
	cases := []struct {
		name     string
		wantCode string
		// arrange saturates/drains the server and returns a cleanup.
		arrange func(t *testing.T, srv *service.Server) func()
		body    string
		// wantRetryAfterSec is the exact predicted hint (0 = just assert >= 1).
		wantRetryAfterSec int
	}{
		{
			name:     "queue_full",
			wantCode: service.CodeQueueFull,
			body:     `{"p":"a!","q":"a!","rel":"labelled"}`,
			arrange: func(t *testing.T, srv *service.Server) func() {
				// Workers=1 + AdmissionQueue=2: three held admissions fill
				// the pool and the queue; the next request must shed.
				var releases []func()
				for i := 0; i < 3; i++ {
					release, shed := srv.Hold(false)
					if shed != nil {
						t.Fatalf("setup admission %d shed: %+v", i, shed)
					}
					releases = append(releases, release)
				}
				return func() {
					for _, r := range releases {
						r()
					}
				}
			},
			wantRetryAfterSec: 1, // wait predictor unseeded: floor hint
		},
		{
			name:     "deadline_budget",
			wantCode: service.CodeDeadlineBudget,
			// A 1s budget against a predicted 10s queue wait.
			body: `{"p":"a!","q":"a!","rel":"labelled","timeout_ms":1000}`,
			arrange: func(t *testing.T, srv *service.Server) func() {
				srv.SeedEstimate(10 * time.Second)
				release, shed := srv.Hold(false)
				if shed != nil {
					t.Fatalf("setup admission shed: %+v", shed)
				}
				return release
			},
			wantRetryAfterSec: 10, // one queued round × the 10s estimate
		},
		{
			name:     "draining",
			wantCode: service.CodeDraining,
			body:     `{"p":"a!","q":"a!","rel":"labelled"}`,
			arrange: func(t *testing.T, srv *service.Server) func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
				return func() {}
			},
			wantRetryAfterSec: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts, _ := newTestServer(t, service.Config{Workers: 1, AdmissionQueue: 2})
			cleanup := tc.arrange(t, srv)
			defer cleanup()

			resp, body := postEquiv(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
			}
			var er struct {
				Error service.ErrorBody `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &er); err != nil {
				t.Fatalf("not an error envelope: %s", body)
			}
			if er.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q", er.Error.Code, tc.wantCode)
			}
			if er.Error.Message == "" {
				t.Error("shed without a human-readable message")
			}
			if er.Error.RetryAfterSec < 1 {
				t.Errorf("retry_after_sec = %d, want >= 1", er.Error.RetryAfterSec)
			}
			if tc.wantRetryAfterSec > 0 && er.Error.RetryAfterSec != tc.wantRetryAfterSec {
				t.Errorf("retry_after_sec = %d, want %d", er.Error.RetryAfterSec, tc.wantRetryAfterSec)
			}
			if got := resp.Header.Get("Retry-After"); got != strconv.Itoa(er.Error.RetryAfterSec) {
				t.Errorf("Retry-After header %q does not mirror retry_after_sec %d", got, er.Error.RetryAfterSec)
			}

			// The shed must land on its own per-cause counter, and on the
			// matching metrics series.
			st := srv.GateStats()
			if got := st.Shed[tc.wantCode]; got != 1 {
				t.Errorf("per-cause shed counter = %d, want 1 (stats %+v)", got, st)
			}
		})
	}
}

// TestAdmissionShedMetricsExposed: every shed cause has its own labelled
// series on /metrics.
func TestAdmissionShedMetricsExposed(t *testing.T) {
	srv, ts, _ := newTestServer(t, service.Config{Workers: 1, AdmissionQueue: 2})
	srv.SeedEstimate(10 * time.Second)
	release, shed := srv.Hold(false)
	if shed != nil {
		t.Fatalf("setup admission shed: %+v", shed)
	}
	defer release()
	// One deadline_budget shed.
	if resp, _ := postEquiv(t, ts.URL, `{"p":"a!","q":"a!","rel":"labelled","timeout_ms":1000}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("setup shed: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	text := sb.String()
	for _, want := range []string{
		`bpid_admission_shed_total{cause="queue_full"}`,
		`bpid_admission_shed_total{cause="deadline_budget"}`,
		`bpid_admission_shed_total{cause="draining"}`,
		"bpid_admission_capacity",
		"bpid_admission_inflight",
		"bpid_admission_est_service_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestBatchPartialShed pins the batch shed semantics: admission happens
// upfront in index order, so with one worker and a one-deep queue exactly
// the first two pairs of a five-pair batch run; the rest come back as
// typed queue_full items and the trailer accounts them as shed, while the
// batch itself still succeeds at the HTTP level.
func TestBatchPartialShed(t *testing.T) {
	_, ts, cl := newTestServer(t, service.Config{Workers: 1, AdmissionQueue: 1})
	_ = ts
	var pairs []bpi.EquivRequest
	for i := 0; i < 5; i++ {
		src := fmt.Sprintf("s%d!.t!", i)
		pairs = append(pairs, bpi.EquivRequest{P: src, Q: src, Rel: cert.RelLabelled, TimeoutMs: 30000})
	}
	res, err := cl.Batch(context.Background(), bpi.BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trailer
	if tr.Total != 5 || tr.Succeeded != 2 || tr.Shed != 3 || tr.Failed != 0 {
		t.Fatalf("trailer %+v, want total=5 succeeded=2 shed=3 failed=0", tr)
	}
	if len(res.Items) != 5 {
		t.Fatalf("%d items, want 5", len(res.Items))
	}
	for i, it := range res.Items {
		if it.Index != i {
			t.Fatalf("item %d has index %d after client reordering", i, it.Index)
		}
		if i < 2 {
			if it.Equiv == nil || it.Error != nil || !it.Equiv.Related {
				t.Errorf("item %d: %+v, want a verdict (admitted in index order)", i, it)
			}
			continue
		}
		if it.Error == nil || it.Error.Code != service.CodeQueueFull {
			t.Errorf("item %d: %+v, want a typed queue_full shed", i, it)
			continue
		}
		if it.Error.RetryAfterSec < 1 {
			t.Errorf("item %d: shed without a Retry-After hint: %+v", i, it.Error)
		}
	}
}

// TestAdmissionConcurrentHammer fires 64 concurrent queries at a small
// admission queue: every response must be either a verdict or a typed
// queue_full shed, and the admission ledger must balance exactly —
// admitted + shed = 64, nothing in flight afterwards.
func TestAdmissionConcurrentHammer(t *testing.T) {
	srv, ts, _ := newTestServer(t, service.Config{Workers: 2, AdmissionQueue: 2})
	const n = 64
	var wg sync.WaitGroup
	codes := make([]string, n) // "" = verdict
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"p":"h%d!.k!","q":"h%d!.k!","rel":"labelled","timeout_ms":30000}`, i, i)
			resp, raw := postEquiv(t, ts.URL, body)
			switch resp.StatusCode {
			case http.StatusOK:
				var er service.EquivResponse
				if err := json.Unmarshal([]byte(raw), &er); err != nil || !er.Related {
					t.Errorf("query %d: bad verdict %s", i, raw)
				}
			case http.StatusTooManyRequests:
				var er struct {
					Error service.ErrorBody `json:"error"`
				}
				if err := json.Unmarshal([]byte(raw), &er); err != nil {
					t.Errorf("query %d: untyped 429: %s", i, raw)
					return
				}
				codes[i] = er.Error.Code
				if er.Error.Code != service.CodeQueueFull && er.Error.Code != service.CodeDeadlineBudget {
					t.Errorf("query %d: unexpected shed code %q", i, er.Error.Code)
				}
				if er.Error.RetryAfterSec < 1 {
					t.Errorf("query %d: shed without Retry-After", i)
				}
			default:
				t.Errorf("query %d: status %d: %s", i, resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()
	shed := 0
	for _, c := range codes {
		if c != "" {
			shed++
		}
	}
	st := srv.GateStats()
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after all requests returned", st.Inflight)
	}
	counted := st.Shed[service.CodeQueueFull] + st.Shed[service.CodeDeadlineBudget]
	if got := st.Admitted + counted + st.Shed[service.CodeDraining]; got != n {
		t.Errorf("admitted+shed = %d, want %d (stats %+v)", got, n, st)
	}
	if int(counted) != shed {
		t.Errorf("server counted %d sheds, clients saw %d", counted, shed)
	}
}

// gateRows are the kinds of work that take a worker, one request each:
// every POST route.
var gateRows = []struct{ name, path, body string }{
	{"equiv", "/v1/equiv", `{"p":"a!","q":"a!","rel":"labelled"}`},
	{"prove", "/v1/prove", `{"p":"a!","q":"a!"}`},
	{"batch item", "/v1/equiv/batch", `{"pairs":[{"p":"a!","q":"a!","rel":"labelled"}]}`},
}

// TestGateEndpoints: every kind of work that takes a worker passes the one
// gate. With the worker and the one queue place held, each is shed with
// queue_full and a Retry-After hint, on its own series of /metrics; after
// Shutdown, each is shed with draining.
func TestGateEndpoints(t *testing.T) {
	srv, ts, _ := newTestServer(t, service.Config{Workers: 1, AdmissionQueue: 1})
	// shedOf posts one row and returns its shed: the error of a gated
	// endpoint, a 429 whose Retry-After header mirrors the body, or the
	// error of the batch's one item.
	shedOf := func(t *testing.T, path, body string) service.ErrorBody {
		t.Helper()
		resp, raw := post(t, ts, path, body)
		if path == "/v1/equiv/batch" {
			var item service.BatchItem
			if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(strings.SplitN(raw, "\n", 2)[0]), &item) != nil || item.Error == nil {
				t.Fatalf("status %d, first line of %q is not a shed item", resp.StatusCode, raw)
			}
			return *item.Error
		}
		var er struct {
			Error service.ErrorBody `json:"error"`
		}
		if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal([]byte(raw), &er) != nil {
			t.Fatalf("status %d body %s, want a 429 error envelope", resp.StatusCode, raw)
		}
		if got := resp.Header.Get("Retry-After"); got != strconv.Itoa(er.Error.RetryAfterSec) {
			t.Errorf("Retry-After header %q does not mirror retry_after_sec %d", got, er.Error.RetryAfterSec)
		}
		return er.Error
	}
	const series = `bpid_admission_shed_total{cause="queue_full"}`
	var releases []func()
	for i := 0; i < 2; i++ {
		release, eb := srv.Hold(false)
		if eb != nil {
			t.Fatalf("setup hold %d shed: %+v", i, eb)
		}
		releases = append(releases, release)
	}
	for _, row := range gateRows {
		t.Run("full/"+row.name, func(t *testing.T) {
			before := metricValue(t, ts, series)
			if eb := shedOf(t, row.path, row.body); eb.Code != service.CodeQueueFull || eb.RetryAfterSec < 1 {
				t.Errorf("shed %+v, want queue_full with retry_after_sec >= 1", eb)
			}
			if after := metricValue(t, ts, series); after != before+1 {
				t.Errorf("%s went from %g to %g, want one more", series, before, after)
			}
		})
	}
	for _, release := range releases {
		release()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, row := range gateRows {
		t.Run("draining/"+row.name, func(t *testing.T) {
			if eb := shedOf(t, row.path, row.body); eb.Code != service.CodeDraining || eb.RetryAfterSec < 1 {
				t.Errorf("shed %+v, want draining with retry_after_sec >= 1", eb)
			}
		})
	}
}

// TestGateDrain: Shutdown waits for all the work the gate admitted before
// it, a request still queued for the worker included, while new work is
// shed with draining; and no goroutine outlives the drain.
func TestGateDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, ts, _ := newTestServer(t, service.Config{Workers: 1, AdmissionQueue: 1})
	release, eb := srv.Hold(true) // admitted, and on the only worker
	if eb != nil {
		t.Fatal(eb)
	}
	defer release() // on a failure too, or closing the test server waits forever
	queued := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/equiv", "application/json", strings.NewReader(gateRows[0].body))
		if err != nil {
			t.Error(err)
			queued <- 0
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	poll(t, "the equiv request to queue", func() bool { return srv.GateStats().Inflight == 2 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	poll(t, "the drain to start", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	if resp, body := post(t, ts, "/v1/equiv", gateRows[0].body); resp.StatusCode != http.StatusTooManyRequests || errCode(t, body) != service.CodeDraining {
		t.Errorf("new work during the drain: status %d body %s, want 429 draining", resp.StatusCode, body)
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) with admitted work unfinished", err)
	default:
	}
	release()
	if code := <-queued; code != http.StatusOK {
		t.Errorf("queued equiv request: status %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	ts.Close()
	waitGoroutines(t, before)
}

// poll waits for cond, failing the test after five seconds.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// metricValue reads one series from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	_, text := get(t, ts, "/metrics")
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}
