package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
)

// TestIndexHeapPerRecord pins the index's footprint: a ledger of 1,024
// records holds under 200 B of heap per record after GC, whether Open
// indexed the records or this process appended them. No payload, Record or
// certificate stays in memory.
func TestIndexHeapPerRecord(t *testing.T) {
	const n = 1024
	const limit = 200
	dir := t.TempDir()
	cfg := Config{MaxWait: -1}
	heapPerRecord := func(before uint64) float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return (float64(ms.HeapAlloc) - float64(before)) / n
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	w, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := heap()
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	for i := 0; i < n; i++ {
		term := fmt.Sprintf("c%d!", i)
		if _, err := w.Append(certRecord(t, ch, cert.RelLabelled, false, term, term)); err != nil {
			t.Fatal(err)
		}
	}
	ch = nil
	appended := heapPerRecord(before)
	runtime.KeepAlive(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before = heap()
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opened := heapPerRecord(before)
	if st := l.Stats(); st.Records != n || st.Rejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
	runtime.KeepAlive(l)
	l.Close()
	t.Logf("heap per record: %.0f B opened, %.0f B appended", opened, appended)
	if opened >= limit || appended >= limit {
		t.Fatalf("heap per record: %.0f B opened, %.0f B appended; want under %d B", opened, appended, limit)
	}
}

// TestRewriteAfterOpenQuarantined rewrites records on disk after Open,
// checksum fixed: one not read yet, and one already verified by an earlier
// read. Each is quarantined at its next read, because the read checks the
// bytes against the leaf hash the seal chain covered at Open.
func TestRewriteAfterOpenQuarantined(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	writeLedger(t, dir, noTimer, recs)
	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, ok := l.Lookup(recs[0].Key, 0, 0, 0); !ok {
		t.Fatal("honest record not served")
	}

	seg := lastSegment(t, dir)
	flipEntryByte(t, seg, 0, true) // recs[0], verified above
	flipEntryByte(t, seg, 1, true) // recs[1], not read yet

	if _, _, ok := l.Lookup(recs[1].Key, 0, 0, 0); ok {
		t.Fatal("record rewritten before its first read was served")
	}
	if _, err := l.Proof(recs[0].KeyHash); err != ErrUnknownKey {
		t.Fatalf("Proof of a record rewritten after its first read = %v, want ErrUnknownKey", err)
	}
	st := l.Stats()
	if st.Rejected != 2 || st.Records != len(recs)-2 {
		t.Fatalf("stats: %+v; rejections: %v", st, l.Rejections())
	}
	for _, rej := range l.Rejections() {
		if !strings.Contains(rej, "changed on disk") {
			t.Errorf("rejection %q does not name the rewrite", rej)
		}
	}
	if n := l.Replay(func(*Record, *cert.Certificate) {}); n != len(recs)-2 {
		t.Fatalf("replayed %d, want %d", n, len(recs)-2)
	}
}

// TestConcurrentFirstReads races first reads of the same records and of
// different ones through every read path. Every honest record must come
// back from every path, and none is quarantined. Run under -race in CI.
func TestConcurrentFirstReads(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	writeLedger(t, dir, noTimer, recs)
	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(recs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range recs {
				r := recs[(k+w)%len(recs)] // each worker starts at another record
				switch w % 4 {
				case 0, 1:
					if got, crt, ok := l.Lookup(r.Key, 0, 0, 0); !ok || got.Related != r.Related || crt == nil {
						errs <- fmt.Errorf("Lookup(%s): ok=%t", r.Key, ok)
					}
				case 2:
					if _, err := l.Proof(r.KeyHash); err != nil {
						errs <- fmt.Errorf("Proof(%s): %v", r.Key, err)
					}
				default:
					if n := l.Replay(func(*Record, *cert.Certificate) {}); n != len(recs) {
						errs <- fmt.Errorf("Replay offered %d of %d", n, len(recs))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := l.Stats(); st.Records != len(recs) || st.Rejected != 0 {
		t.Fatalf("stats: %+v; rejections: %v", st, l.Rejections())
	}
}

// TestFirstReadRejectsTooLargeTerm: a record whose certificate names a term
// past the certificate term bound is indexed at Open, and its first read
// refuses the term before parsing it, with an error wrapping
// ErrTermTooLarge, and quarantines the record.
func TestFirstReadRejectsTooLargeTerm(t *testing.T) {
	good := allRecords(t)[0]
	var crt cert.Certificate
	if err := json.Unmarshal(good.Cert, &crt); err != nil {
		t.Fatal(err)
	}
	crt.P = strings.Repeat("a", certTermBytes) + "!"
	bad := good
	var err error
	if bad.Cert, err = json.Marshal(&crt); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeLedger(t, dir, noTimer, []Record{bad})

	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Records != 1 || st.Rejected != 0 {
		t.Fatalf("Open stats: %+v", st)
	}
	_, _, _, err = l.read(0)
	if !errors.Is(err, ErrTermTooLarge) {
		t.Fatalf("first read err = %v, want ErrTermTooLarge", err)
	}
	if n := len(err.Error()); n >= 1<<10 {
		t.Fatalf("read error is %d bytes, want under 1 KiB", n)
	}
	if st := l.Stats(); st.Records != 0 || st.Rejected != 1 {
		t.Fatalf("after the first read: %+v", st)
	}
	if _, _, ok := l.Lookup(bad.Key, 0, 0, 0); ok {
		t.Fatal("record with an over-bound term served")
	}
}

// TestEncodeEntryMatchesMarshal: a record's framed payload is byte for byte
// what json.Marshal writes, so records appended through the reused frame
// buffer read as records always have.
func TestEncodeEntryMatchesMarshal(t *testing.T) {
	r := allRecords(t)[1]
	r.Reason = `<a & b> "quoted"`
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encodeEntry(make([]byte, 3), entryVerdict, &r)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, next, ok, crcOK := decodeEntry(frame, 0)
	if !ok || !crcOK || typ != entryVerdict || next != len(frame) || string(payload) != string(want) {
		t.Fatalf("frame of %d bytes: ok=%t crc=%t typ=%d payload %q, want %q", len(frame), ok, crcOK, typ, payload, want)
	}
}
