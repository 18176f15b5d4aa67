package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/service"
)

// openLedger opens a test ledger with deterministic sealing (every record
// seals immediately; no background timer).
func openLedger(t *testing.T, dir string) *ledger.Ledger {
	t.Helper()
	l, err := ledger.Open(dir, ledger.Config{BatchSize: 1, MaxWait: -1})
	if err != nil {
		t.Fatalf("ledger.Open: %v", err)
	}
	return l
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestLedgerWarmStart is the daemon-level roundtrip: verdicts computed by
// one daemon process persist, and a second process over the same directory
// answers the repeat queries from the ledger without touching the engine —
// the first read of each record verifies it and seeds the verdict cache,
// and the next query is a cache hit — and serves verifiable inclusion
// proofs for them.
func TestLedgerWarmStart(t *testing.T) {
	dir := t.TempDir()
	queries := []string{
		`{"p":"a! | b!","q":"a!.b! + b!.a!","rel":"labelled"}`,
		`{"p":"tau.a!","q":"a!","rel":"labelled","weak":true}`,
		`{"p":"a!","q":"b!","rel":"labelled"}`,
	}

	// First life: compute and persist.
	led1 := openLedger(t, dir)
	srv1, ts1, _ := newTestServer(t, service.Config{Ledger: led1})
	var keys []string
	for _, q := range queries {
		resp, body := post(t, ts1, "/v1/equiv", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("equiv: %d %s", resp.StatusCode, body)
		}
		var er service.EquivResponse
		if err := json.Unmarshal([]byte(body), &er); err != nil {
			t.Fatal(err)
		}
		if er.Cached {
			t.Fatalf("first computation reported cached: %s", body)
		}
		if er.LedgerKey == "" {
			t.Fatalf("no ledger_key on a ledger-backed daemon: %s", body)
		}
		keys = append(keys, er.LedgerKey)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := led1.Close(); err != nil {
		t.Fatalf("ledger close: %v", err)
	}

	// Second life over the same directory: the records are indexed, none
	// read yet.
	led2 := openLedger(t, dir)
	defer led2.Close()
	_, ts2, _ := newTestServer(t, service.Config{Ledger: led2})

	var stats service.LedgerStatsResponse
	if code := getJSON(t, ts2.URL+"/v1/ledger/stats", &stats); code != http.StatusOK {
		t.Fatalf("ledger stats: %d", code)
	}
	if !stats.Enabled || stats.Replayed != 0 || stats.Stats.Records != len(queries) {
		t.Fatalf("stats at boot: %+v", stats)
	}
	if stats.Stats.Rejected != 0 || stats.Stats.ChainBroken {
		t.Fatalf("clean ledger reported damage: %+v", stats)
	}

	// Repeat queries come from the ledger, certificate included, and then
	// from the verdict cache.
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			_, body := post(t, ts2, "/v1/equiv", strings.TrimSuffix(q, "}")+`,"cert":true}`)
			var er service.EquivResponse
			if err := json.Unmarshal([]byte(body), &er); err != nil {
				t.Fatal(err)
			}
			if !er.Cached {
				t.Fatalf("round %d, query %d not served without the engine: %s", round, i, body)
			}
			if er.LedgerKey != keys[i] {
				t.Fatalf("query %d ledger key drifted: %s vs %s", i, er.LedgerKey, keys[i])
			}
			if er.Certificate == nil {
				t.Fatalf("persisted verdict lost its certificate: %s", body)
			}
			if err := cert.Verify(er.Certificate); err != nil {
				t.Fatalf("persisted certificate does not verify: %v", err)
			}
		}
	}
	getJSON(t, ts2.URL+"/v1/ledger/stats", &stats)
	if stats.Replayed != len(queries) || stats.Stats.Records != len(queries) || stats.Stats.Rejected != 0 {
		t.Fatalf("stats after the queries: %+v", stats)
	}

	// Inclusion proofs are served and verify offline.
	for _, key := range keys {
		var proof ledger.InclusionProof
		if code := getJSON(t, ts2.URL+"/v1/ledger/proof/"+key, &proof); code != http.StatusOK {
			t.Fatalf("proof %s: %d", key, code)
		}
		if err := ledger.VerifyProof(&proof); err != nil {
			t.Fatalf("proof %s does not verify: %v", key, err)
		}
	}

	// The metrics surface carries the ledger series and the per-relation
	// cache split: the second round hit the cache.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"bpid_ledger_records_total 3",
		"bpid_ledger_replay_rejected_total 0",
		"bpid_ledger_replayed_total 3",
		`bpid_verdict_cache_rel_hits_total{rel="labelled",mode="strong"} 2`,
		`bpid_verdict_cache_rel_hits_total{rel="labelled",mode="weak"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestLedgerWarmStartEveryRelation: every record the daemon writes, for
// each of the five relations strong and weak, passes its first read in the
// next process. The daemon writes a record under the pair key of its query
// (QueryKey), and the first read re-derives the key from the certificate
// (CertKey), so a relation whose two keys differed would be quarantined
// here instead of answering from the ledger.
func TestLedgerWarmStartEveryRelation(t *testing.T) {
	dir := t.TempDir()
	queries := []string{
		`{"p":"a?|a?","q":"a?.a?","rel":"labelled"}`,
		`{"p":"c?(x).nu z.x!(z) | b!","q":"b! | c?(y).nu w.y!(w)","rel":"labelled","weak":true}`,
		`{"p":"nu x.a!(x)","q":"nu y.a!(y)","rel":"barbed"}`,
		`{"p":"tau.tau.c!","q":"c!","rel":"barbed","weak":true}`,
		`{"p":"a!.b!","q":"a!.c!","rel":"step"}`,
		`{"p":"tau.a!(b)","q":"a!(b)","rel":"step","weak":true}`,
		`{"p":"a?(x).x! | a?","q":"a?(y).y! | a?()","rel":"onestep"}`,
		`{"p":"tau.a!","q":"a!","rel":"onestep","weak":true}`,
		`{"p":"[a=b]c!","q":"0","rel":"congruence"}`,
		`{"p":"a?(x).[x=b]c!","q":"a?(y).tau.0","rel":"congruence","weak":true}`,
	}
	ask := func(ts *httptest.Server, q string) service.EquivResponse {
		t.Helper()
		resp, body := post(t, ts, "/v1/equiv", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", q, resp.StatusCode, body)
		}
		var er service.EquivResponse
		if err := json.Unmarshal([]byte(body), &er); err != nil {
			t.Fatal(err)
		}
		return er
	}

	led1 := openLedger(t, dir)
	srv1, ts1, _ := newTestServer(t, service.Config{Ledger: led1})
	keys := make([]string, len(queries))
	for i, q := range queries {
		if keys[i] = ask(ts1, q).LedgerKey; keys[i] == "" {
			t.Fatalf("%s: no ledger_key", q)
		}
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := led1.Close(); err != nil {
		t.Fatal(err)
	}

	led2 := openLedger(t, dir)
	defer led2.Close()
	_, ts2, _ := newTestServer(t, service.Config{Ledger: led2})
	for i, q := range queries {
		if er := ask(ts2, q); !er.Cached || er.LedgerKey != keys[i] {
			t.Errorf("%s: cached=%t ledger_key %s, want an answer from record %s", q, er.Cached, er.LedgerKey, keys[i])
		}
	}
	if st := led2.Stats(); st.Records != len(queries) || st.Rejected != 0 {
		t.Fatalf("stats: %+v; rejections: %v", st, led2.Rejections())
	}
}

// forgedLedger writes, into a fresh ledger at dir, one record per pair
// whose verdict its own certificate disproves, and returns the records.
func forgedLedger(t *testing.T, dir string, pairs [][2]string) []ledger.Record {
	t.Helper()
	led := openLedger(t, dir)
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	var recs []ledger.Record
	for _, pq := range pairs {
		p, _ := parser.Parse(pq[0])
		q, _ := parser.Parse(pq[1])
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, P: p, Q: q})
		if err != nil {
			t.Fatalf("Labelled: %v", err)
		}
		rec, err := ledger.NewRecord(cert.RelLabelled, false, 0, 0, 0, r.Related, r.Pairs, r.Reason, r.Cert)
		if err != nil {
			t.Fatal(err)
		}
		rec.Related = !r.Related // the lie: the certificate proves the opposite
		if _, err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestLedgerForgedRecordNotTrusted plants records whose verdicts their own
// certificates disprove. The daemon indexes them at boot, and quarantines
// each at its first read: a query on the pair is decided afresh and
// answered correctly, and a proof request, which passes the gate, answers
// 404. Both count in Rejected.
func TestLedgerForgedRecordNotTrusted(t *testing.T) {
	dir := t.TempDir()
	forged := forgedLedger(t, dir, [][2]string{{"a! | b!", "a!.b! + b!.a!"}, {"c!", "c!.c!"}})

	led := openLedger(t, dir)
	defer led.Close()
	_, ts, _ := newTestServer(t, service.Config{Ledger: led})

	var stats service.LedgerStatsResponse
	getJSON(t, ts.URL+"/v1/ledger/stats", &stats)
	if stats.Replayed != 0 || stats.Stats.Records != 2 || stats.Stats.Rejected != 0 {
		t.Fatalf("stats at boot: %+v", stats)
	}

	// The query's forged record fails its first read: the query is a fresh
	// computation and reports the true verdict.
	_, body := post(t, ts, "/v1/equiv", `{"p":"a! | b!","q":"a!.b! + b!.a!","rel":"labelled"}`)
	var er service.EquivResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	if er.Cached || !er.Related {
		t.Fatalf("forged record influenced the verdict: %s", body)
	}
	getJSON(t, ts.URL+"/v1/ledger/stats", &stats)
	if stats.Replayed != 0 || stats.Stats.Rejected != 1 {
		t.Fatalf("forged record not quarantined at its first read: %+v", stats)
	}

	// The proof of a record not read yet verifies it first, through the
	// gate, and a forgery has none.
	resp, _ := get(t, ts, "/v1/ledger/proof/"+forged[1].KeyHash)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("proof of a forged record: status %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get(service.TraceHeader) == "" {
		t.Fatal("proof request did not pass the gate (no trace id)")
	}
	getJSON(t, ts.URL+"/v1/ledger/stats", &stats)
	if stats.Stats.Rejected != 2 {
		t.Fatalf("forged record not quarantined by the proof's read: %+v", stats)
	}
}

// TestLedgerProofOfUnreadRecord: the proof of an honest record that no
// query has read yet verifies the record first, and is served.
func TestLedgerProofOfUnreadRecord(t *testing.T) {
	dir := t.TempDir()
	led1 := openLedger(t, dir)
	srv1, ts1, _ := newTestServer(t, service.Config{Ledger: led1})
	_, body := post(t, ts1, "/v1/equiv", `{"p":"a! | b!","q":"a!.b! + b!.a!","rel":"labelled"}`)
	var er service.EquivResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := led1.Close(); err != nil {
		t.Fatal(err)
	}

	led2 := openLedger(t, dir)
	defer led2.Close()
	_, ts2, _ := newTestServer(t, service.Config{Ledger: led2})
	var proof ledger.InclusionProof
	if code := getJSON(t, ts2.URL+"/v1/ledger/proof/"+er.LedgerKey, &proof); code != http.StatusOK {
		t.Fatalf("proof of an unread record: %d", code)
	}
	if err := ledger.VerifyProof(&proof); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	var stats service.LedgerStatsResponse
	getJSON(t, ts2.URL+"/v1/ledger/stats", &stats)
	if stats.Stats.Records != 1 || stats.Stats.Rejected != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestLedgerConcurrentFirstReads races queries on a warm-started daemon:
// many clients ask the same persisted pairs and different ones at once,
// so first reads of one record and of several run together. Every answer
// is served from the ledger or the cache and matches the persisted
// verdict. Run under -race in CI.
func TestLedgerConcurrentFirstReads(t *testing.T) {
	dir := t.TempDir()
	queries := []struct {
		body    string
		related bool
	}{
		{`{"p":"a! | b!","q":"a!.b! + b!.a!","rel":"labelled"}`, true},
		{`{"p":"tau.a!","q":"a!","rel":"labelled","weak":true}`, true},
		{`{"p":"a!","q":"b!","rel":"labelled"}`, false},
		{`{"p":"a?(x).x!","q":"a?(y).y!","rel":"barbed"}`, true},
	}
	led1 := openLedger(t, dir)
	srv1, ts1, _ := newTestServer(t, service.Config{Ledger: led1})
	for _, q := range queries {
		post(t, ts1, "/v1/equiv", q.body)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := led1.Close(); err != nil {
		t.Fatal(err)
	}

	led2 := openLedger(t, dir)
	defer led2.Close()
	_, ts2, _ := newTestServer(t, service.Config{Ledger: led2})
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(queries))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range queries {
				q := queries[(c+k)%len(queries)]
				resp, err := http.Post(ts2.URL+"/v1/equiv", "application/json", strings.NewReader(q.body))
				if err != nil {
					errs <- err
					continue
				}
				var er service.EquivResponse
				err = json.NewDecoder(resp.Body).Decode(&er)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- err
				case !er.Cached || er.Related != q.related:
					errs <- fmt.Errorf("%s: cached=%t related=%t", q.body, er.Cached, er.Related)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var stats service.LedgerStatsResponse
	getJSON(t, ts2.URL+"/v1/ledger/stats", &stats)
	if stats.Stats.Records != len(queries) || stats.Stats.Rejected != 0 || stats.Replayed < len(queries) {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestLedgerRecordsTermAtCap: the printer can spell a term longer than its
// source, so a certificate's terms can pass the request term cap. A request
// whose terms are exactly at the cap, 64 KiB of nested prefixes under a
// guard that never fires, gets a certificate whose terms print about 1.7
// times as long. bpid still records it, and the record exports, imports
// and reads back.
func TestLedgerRecordsTermAtCap(t *testing.T) {
	const guard = "nu z.z?.("
	n := (ledger.MaxTermBytes - len(guard)) / 3
	term := guard + strings.Repeat("a?.", n-1) + "a?)"
	term += strings.Repeat(" ", ledger.MaxTermBytes-len(term))
	if len(term) != ledger.MaxTermBytes {
		t.Fatalf("term is %d bytes, want the cap %d", len(term), ledger.MaxTermBytes)
	}
	body, err := json.Marshal(service.EquivRequest{P: term, Q: term, Rel: cert.RelLabelled, Cert: true, TimeoutMs: 60_000})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	led := openLedger(t, dir)
	srv, ts, _ := newTestServer(t, service.Config{Ledger: led})
	resp, out := post(t, ts, "/v1/equiv", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("equiv at the cap: %d %.200s", resp.StatusCode, out)
	}
	var er service.EquivResponse
	if err := json.Unmarshal([]byte(out), &er); err != nil {
		t.Fatal(err)
	}
	if !er.Related || er.Certificate == nil || len(er.Certificate.P) <= ledger.MaxTermBytes {
		t.Fatalf("related=%t, certificate term of %d bytes; want a related verdict whose term prints past the cap",
			er.Related, len(er.Certificate.P))
	}
	if err := srv.Shutdown(context.Background()); err != nil { // flushes the append
		t.Fatal(err)
	}
	if st := led.Stats(); st.Appended != 1 || st.Rejected != 0 {
		t.Fatalf("the certificate at the cap was not recorded: %+v", st)
	}
	var export bytes.Buffer
	if n, err := led.Export(&export); err != nil || n != 1 {
		t.Fatalf("Export: n=%d err=%v", n, err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	dst := openLedger(t, t.TempDir())
	defer dst.Close()
	st, err := dst.Import(&export, ledger.ImportOptions{Reject: func(_ int, err error) { t.Errorf("import rejected the record: %v", err) }})
	if err != nil || st.Imported != 1 {
		t.Fatalf("import: %+v, %v", st, err)
	}
	reopened := openLedger(t, dir)
	defer reopened.Close()
	if n := reopened.Replay(func(*ledger.Record, *cert.Certificate) {}); n != 1 {
		t.Fatalf("the record at the cap did not read back: replayed %d", n)
	}
}

// TestLedgerProofTaxonomy pins the proof endpoint's error taxonomy: 409
// pending for an unsealed record, 404 for an unknown key, and the
// no-ledger daemon answers stats with enabled=false.
func TestLedgerProofTaxonomy(t *testing.T) {
	dir := t.TempDir()
	led, err := ledger.Open(dir, ledger.Config{BatchSize: 1000, MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	_, ts, _ := newTestServer(t, service.Config{Ledger: led})

	_, body := post(t, ts, "/v1/equiv", `{"p":"a!","q":"a!","rel":"labelled"}`)
	var er service.EquivResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	// The record is appended write-behind: wait until it is on disk.
	for deadline := time.Now().Add(5 * time.Second); led.Stats().Appended == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the verdict was never appended")
		}
	}

	resp, err := http.Get(ts.URL + "/v1/ledger/proof/" + er.LedgerKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unsealed proof status = %d, want 409", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/ledger/proof/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown proof status = %d, want 404", resp.StatusCode)
	}

	_, tsNo, _ := newTestServer(t, service.Config{})
	var stats service.LedgerStatsResponse
	if code := getJSON(t, tsNo.URL+"/v1/ledger/stats", &stats); code != http.StatusOK || stats.Enabled {
		t.Fatalf("no-ledger stats: code=%d %+v", code, stats)
	}
	resp, err = http.Get(tsNo.URL + "/v1/ledger/proof/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-ledger proof status = %d, want 404", resp.StatusCode)
	}
}

// TestLedgerKeyOnlyForRecordedVerdicts pins that a ledger-backed daemon
// advertises a ledger_key only for a verdict it records: a related ~c
// truncated by max_subs carries no certificate, so the ledger never
// records it, and neither its first answer nor its cache hit may name a
// key that GET /v1/ledger/proof would answer 404.
func TestLedgerKeyOnlyForRecordedVerdicts(t *testing.T) {
	led := openLedger(t, t.TempDir())
	defer led.Close()
	_, ts, _ := newTestServer(t, service.Config{Ledger: led})
	const q = `{"p":"a!(b) + a!(b)","q":"a!(b)","rel":"congruence","max_subs":1}`
	for _, wantCached := range []bool{false, true} {
		resp, body := post(t, ts, "/v1/equiv", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("equiv: %d %s", resp.StatusCode, body)
		}
		var er service.EquivResponse
		if err := json.Unmarshal([]byte(body), &er); err != nil {
			t.Fatal(err)
		}
		if !er.Related || er.Cached != wantCached {
			t.Fatalf("related=%v cached=%v, want true %v: %s", er.Related, er.Cached, wantCached, body)
		}
		if er.LedgerKey != "" {
			t.Errorf("cached=%v: ledger_key %s advertised for a verdict the ledger does not record", er.Cached, er.LedgerKey)
		}
	}
}
