package ledger

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/parser"
)

// testPairs are distinct canonical pairs (so each record gets its own key),
// mixing relations, strong/weak, and positive/negative verdicts.
var testPairs = []struct {
	rel  string
	weak bool
	p, q string
}{
	{cert.RelLabelled, false, "a!", "a!"},
	{cert.RelLabelled, false, "a! | b!", "a!.b! + b!.a!"},
	{cert.RelLabelled, true, "tau.a!", "a!"},
	{cert.RelLabelled, false, "a?(x).x!", "a?(y).y!"},
	{cert.RelBarbed, false, "nu x.a!(x)", "nu y.a!(y)"},
	{cert.RelBarbed, true, "tau.tau.c!", "c!"},
	{cert.RelStep, true, "tau.a!(b)", "a!(b)"},
	{cert.RelStep, false, "a!.b!", "a!.c!"},
	{cert.RelLabelled, false, "a!", "b!"},
	{cert.RelLabelled, false, "nu b.(b! | b?(x).c!)", "tau.c! + c!"},
}

// certRecord decides one pair with a certifying checker and wraps the verdict.
func certRecord(t *testing.T, ch *equiv.Checker, rel string, weak bool, p, q string) Record {
	t.Helper()
	pp, err := parser.Parse(p)
	if err != nil {
		t.Fatalf("parse %q: %v", p, err)
	}
	qq, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	r, err := ch.Decide(context.Background(), equiv.Query{Rel: rel, Weak: weak, P: pp, Q: qq})
	if err != nil {
		t.Fatalf("%s(%s, %s): %v", rel, p, q, err)
	}
	rec, err := NewRecord(rel, weak, 0, 0, 0, r.Related, r.Pairs, r.Reason, r.Cert)
	if err != nil {
		t.Fatalf("NewRecord(%s, %s): %v", p, q, err)
	}
	// The record must sit under the key a query on (p, q) looks it up by.
	if want := QueryKey(rel, weak, pp, qq); rec.Key != want {
		t.Fatalf("%s(%s, %s): record key %q, query key %q", rel, p, q, rec.Key, want)
	}
	return rec
}

func allRecords(t *testing.T) []Record {
	t.Helper()
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	recs := make([]Record, 0, len(testPairs))
	for _, tp := range testPairs {
		recs = append(recs, certRecord(t, ch, tp.rel, tp.weak, tp.p, tp.q))
	}
	return recs
}

// writeLedger appends recs into a fresh ledger at dir and closes it.
func writeLedger(t *testing.T, dir string, cfg Config, recs []Record) {
	t.Helper()
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// noTimer disables timed sealing so tests control batch boundaries exactly.
var noTimer = Config{BatchSize: 4, MaxWait: -1}

// TestOpenLedgerFromCommit49dd064 opens a ledger that bpid wrote at commit
// 49dd064 with -merkle-batch 2: twenty queries, both verdicts of every
// relation, over terms with input binders, restrictions, bound outputs and
// matches. Open re-derives each record's pair key from its certificate's
// terms, so this fails if the bytes of syntax.Key change. Such a change
// needs a ledger migration; the fixture is never regenerated.
func TestOpenLedgerFromCommit49dd064(t *testing.T) {
	src := filepath.Join("testdata", "keys-49dd064")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	st := l.Stats()
	if st.Records != 20 || st.Rejected != 0 || st.Pending != 0 || st.ChainBroken || len(st.Notes) != 0 {
		t.Fatalf("stats: %+v; rejections: %v", st, l.Rejections())
	}
	verdicts := map[string]map[bool]bool{}
	n := l.Replay(func(r *Record, crt *cert.Certificate) {
		if verdicts[r.Rel] == nil {
			verdicts[r.Rel] = map[bool]bool{}
		}
		verdicts[r.Rel][r.Related] = true
	})
	if n != st.Records {
		t.Fatalf("replayed %d of %d records", n, st.Records)
	}
	for _, rel := range cert.Relations {
		if !verdicts[rel][true] || !verdicts[rel][false] {
			t.Errorf("fixture lacks a verdict for %s: %v", rel, verdicts[rel])
		}
	}
}

// TestRoundtripWarmStart is the core contract: decide → persist → reopen →
// every record replays verified, produces a verifiable inclusion proof, and
// the chain head is intact.
func TestRoundtripWarmStart(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	writeLedger(t, dir, noTimer, recs)

	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()

	got := map[string]Record{}
	n := l.Replay(func(r *Record, crt *cert.Certificate) {
		if crt == nil {
			t.Fatalf("replayed record %d without a certificate", r.Seq)
		}
		if crt.Related != r.Related {
			t.Fatalf("record %d: certificate verdict %t vs record %t", r.Seq, crt.Related, r.Related)
		}
		got[r.Key] = *r
	})
	if n != len(recs) {
		t.Fatalf("replayed %d records, want %d", n, len(recs))
	}
	for _, want := range recs {
		r, ok := got[want.Key]
		if !ok {
			t.Fatalf("record %q not replayed", want.Key)
		}
		if r.Related != want.Related || r.Rel != want.Rel || r.Weak != want.Weak || r.Reason != want.Reason {
			t.Fatalf("record %q drifted across the roundtrip: %+v vs %+v", want.Key, r, want)
		}
	}

	st := l.Stats()
	if st.Records != len(recs) || st.Rejected != 0 || st.Pending != 0 || st.ChainBroken {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
	wantBatches := (len(recs) + noTimer.BatchSize - 1) / noTimer.BatchSize
	if st.Batches != wantBatches {
		t.Fatalf("batches = %d, want %d", st.Batches, wantBatches)
	}

	// Every key yields a proof that verifies from the seal alone.
	for _, want := range recs {
		p, err := l.Proof(want.KeyHash)
		if err != nil {
			t.Fatalf("Proof(%s): %v", want.Key, err)
		}
		if err := VerifyProof(p); err != nil {
			t.Fatalf("VerifyProof(%s): %v", want.Key, err)
		}
		// Tampered proofs must not verify.
		bad := *p
		bad.Record = bytes.Replace(p.Record, []byte(`"related":`), []byte(`"related_x":`), 1)
		if VerifyProof(&bad) == nil {
			t.Fatalf("tampered proof record for %s verified", want.Key)
		}
	}

	var sb strings.Builder
	if n, err := l.Export(&sb); err != nil || n != len(recs) {
		t.Fatalf("Export: n=%d err=%v", n, err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != len(recs) {
		t.Fatalf("export wrote %d lines, want %d", lines, len(recs))
	}
}

// TestProofPendingAndUnknown pins the proof lookup taxonomy.
func TestProofPendingAndUnknown(t *testing.T) {
	recs := allRecords(t)[:2]
	l, err := Open(t.TempDir(), Config{BatchSize: 100, MaxWait: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if _, err := l.Proof(recs[0].KeyHash); err != ErrPending {
		t.Fatalf("unsealed proof error = %v, want ErrPending", err)
	}
	if _, err := l.Proof(KeyHash("no|such|key")); err != ErrUnknownKey {
		t.Fatalf("unknown key error = %v, want ErrUnknownKey", err)
	}
	if err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	p, err := l.Proof(recs[0].KeyHash)
	if err != nil {
		t.Fatalf("sealed proof: %v", err)
	}
	if err := VerifyProof(p); err != nil {
		t.Fatalf("VerifyProof: %v", err)
	}
}

// TestTimedSeal checks the MaxWait latency bound: a lone appended record is
// sealed by the background loop without reaching the batch size.
func TestTimedSeal(t *testing.T) {
	recs := allRecords(t)[:1]
	l, err := Open(t.TempDir(), Config{BatchSize: 1000, MaxWait: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append(recs[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Batches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed seal never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := l.Stats()
	if st.Pending != 0 || st.Seals != 1 || st.SealWaitSeconds <= 0 {
		t.Fatalf("after timed seal: %+v", st)
	}
}

// TestInspectionLeavesPendingTail opens and closes a ledger while another
// handle still holds unsealed records, as an inspector (bpiledger stats)
// does beside a running writer. The inspector must leave the log byte for
// byte as it found it: had it sealed the writer's three pending records, the
// writer's next seal would cover four records with only one still pending
// on disk, and the next Open would quarantine it and mark the chain broken.
func TestInspectionLeavesPendingTail(t *testing.T) {
	recs := allRecords(t)[:4]
	dir := t.TempDir()
	cfg := Config{BatchSize: 64, MaxWait: -1}
	w, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open writer: %v", err)
	}
	for _, r := range recs[:3] {
		if _, err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	seg := lastSegment(t, dir)
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	insp, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open inspector: %v", err)
	}
	if st := insp.Stats(); st.Records != 3 || st.Pending != 3 || st.Rejected != 0 {
		t.Fatalf("inspector stats: %+v", st)
	}
	if err := insp.Close(); err != nil {
		t.Fatalf("Close inspector: %v", err)
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("inspection changed the segment: %d -> %d bytes", len(before), len(after))
	}

	if _, err := w.Append(recs[3]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close writer: %v", err)
	}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	st := l.Stats()
	if st.Records != 4 || st.Rejected != 0 || st.Pending != 0 || st.Batches != 1 || st.ChainBroken {
		t.Fatalf("after the writer's seal: %+v (rejections %q)", st, l.Rejections())
	}
}

// FuzzOpen feeds segment bytes to Open. Whatever the bytes, Open must not
// panic; when it opens the ledger, Replay, which verifies every record Open
// indexed, must offer exactly the records Stats counts after it, and Close
// must succeed.
func FuzzOpen(f *testing.F) {
	seg, err := os.ReadFile(filepath.Join("testdata", "keys-49dd064", "seg-000001.log"))
	if err != nil {
		f.Fatal(err)
	}
	_, first, _, ok, _ := decodeEntry(seg, 0)
	if !ok {
		f.Fatal("fixture does not start with a framed entry")
	}
	mid := headerBytes + len(first)/2 // inside the first entry's payload
	flipped := bytes.Clone(seg)
	flipped[mid] ^= 1
	f.Add(seg)
	f.Add(seg[:mid])
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Config{MaxWait: -1})
		if err != nil {
			return
		}
		n := l.Replay(func(*Record, *cert.Certificate) {})
		if st := l.Stats(); n != st.Records {
			t.Errorf("Replay offered %d records, Stats counts %d after it", n, st.Records)
		}
		if err := l.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("segmentNames: %v (%d)", err, len(names))
	}
	return filepath.Join(dir, names[len(names)-1])
}

// TestTruncatedTailRecovery crashes mid-write (simulated by chopping bytes
// off the tail) and demands the healthy prefix warm-starts with a note. Open
// only notes the torn tail: an inspection leaves the log byte for byte as
// it was, and the tail is cut just before the first write.
func TestTruncatedTailRecovery(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	writeLedger(t, dir, noTimer, recs) // 10 records → batches of 4,4 + tail seal of 2

	seg := lastSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := buf[:len(buf)-3]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	st := l.Stats()
	if st.Rejected != 0 || st.ChainBroken {
		t.Fatalf("torn tail must not reject records: %+v", st)
	}
	// The chopped bytes destroyed the final seal: its two records are back
	// to pending, every record still replays.
	if n := l.Replay(func(*Record, *cert.Certificate) {}); n != len(recs) {
		t.Fatalf("replayed %d, want %d", n, len(recs))
	}
	if st.Batches != 2 || st.Pending != 2 {
		t.Fatalf("batches=%d pending=%d, want 2 and 2", st.Batches, st.Pending)
	}
	found := false
	for _, note := range st.Notes {
		found = found || strings.Contains(note, "truncated")
	}
	if !found {
		t.Fatalf("no truncation note in %v", st.Notes)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("Open and Close of a torn log changed it: %d -> %d bytes (%v)", len(torn), len(after), err)
	}

	// The first write cuts the torn tail, so the appended record follows the
	// last whole entry and reads back after a reopen.
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	extra := certRecord(t, ch, cert.RelLabelled, false, "d!", "d!")
	w, err := Open(dir, noTimer)
	if err != nil {
		t.Fatalf("Open for the append: %v", err)
	}
	seq, err := w.Append(extra)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil { // seals the two inherited records and the new one
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, noTimer)
	if err != nil {
		t.Fatalf("reopen after the append: %v", err)
	}
	defer r.Close()
	if st := r.Stats(); st.Records != len(recs)+1 || st.Rejected != 0 || st.ChainBroken ||
		st.Batches != 3 || st.Pending != 0 || len(st.Notes) != 0 {
		t.Fatalf("after the cut and the append: %+v", st)
	}
	got, _, ok := r.Lookup(extra.Key, 0, 0, 0)
	if !ok || got.Seq != seq {
		t.Fatalf("appended record did not read back: ok=%t %+v", ok, got)
	}
	if n := r.Replay(func(*Record, *cert.Certificate) {}); n != len(recs)+1 {
		t.Fatalf("replayed %d, want %d", n, len(recs)+1)
	}
}

// flipEntryByte flips one payload byte of the idx-th entry in the segment.
// With fixCRC the checksum is recomputed, modelling deliberate tampering
// rather than bit rot — framing then passes and only the Merkle seal can
// catch the rewrite.
func flipEntryByte(t *testing.T, path string, idx int, fixCRC bool) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; ; i++ {
		_, payload, next, ok, _ := decodeEntry(buf, off)
		if !ok {
			t.Fatalf("entry %d not found in %s", idx, path)
		}
		if i == idx {
			buf[off+headerBytes+len(payload)/2] ^= 0x01
			if fixCRC {
				crc := crc32.Checksum(buf[off+4:off+headerBytes+len(payload)], crcTable)
				binary.LittleEndian.PutUint32(buf[off+headerBytes+len(payload):], crc)
			}
			break
		}
		off = next
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBitFlipQuarantinesBatch: a checksum-failing record is skipped, its
// seal no longer matches, and the whole batch is condemned fail-closed —
// while the later, untouched batch still replays.
func TestBitFlipQuarantinesBatch(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	writeLedger(t, dir, noTimer, recs)

	flipEntryByte(t, lastSegment(t, dir), 0, false) // first record of batch 0

	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	st := l.Stats()
	if !st.ChainBroken {
		t.Fatal("bit flip inside a sealed batch did not break the chain")
	}
	if st.Rejected != noTimer.BatchSize {
		t.Fatalf("rejected = %d, want the whole batch (%d)", st.Rejected, noTimer.BatchSize)
	}
	if n := l.Replay(func(*Record, *cert.Certificate) {}); n != len(recs)-noTimer.BatchSize {
		t.Fatalf("replayed %d, want %d (healthy batches only)", n, len(recs)-noTimer.BatchSize)
	}
	if len(l.Rejections()) != noTimer.BatchSize {
		t.Fatalf("Rejections() = %v", l.Rejections())
	}
}

// TestTamperedBytesBreakChain: rewriting a sealed record *with a corrected
// checksum* still condemns the batch — integrity does not rest on CRC alone.
func TestTamperedBytesBreakChain(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	writeLedger(t, dir, noTimer, recs)

	flipEntryByte(t, lastSegment(t, dir), 1, true)

	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	st := l.Stats()
	if !st.ChainBroken || st.Rejected < 1 {
		t.Fatalf("fixed-CRC tampering went unnoticed: %+v", st)
	}
	if n := l.Replay(func(*Record, *cert.Certificate) {}); n > len(recs)-1 {
		t.Fatalf("replayed %d records from a tampered batch", n)
	}
}

// TestForgedRecordsQuarantined covers the semantic layer: records whose
// bytes are perfectly intact (written and sealed normally) but whose claims
// their certificates do not support. Open indexes them like any record.
// Each forgery class is quarantined at its first read, whichever read that
// is, and is never served, proved or exported; the honest records around
// them still read.
func TestForgedRecordsQuarantined(t *testing.T) {
	recs := allRecords(t)
	honest := len(recs) - 3

	flipped := recs[honest] // verdict flipped, certificate untouched
	flipped.Related = !flipped.Related
	swapped := recs[honest+1] // certificate swapped in from another pair
	swapped.Cert = recs[0].Cert
	doctored := recs[honest+2] // certificate body edited to match the lie
	doctored.Cert = bytes.Replace(doctored.Cert, []byte(`"related":true`), []byte(`"related":false`), 1)
	if bytes.Equal(doctored.Cert, recs[honest+2].Cert) {
		// The pair was negative; flip the other way.
		doctored.Cert = bytes.Replace(doctored.Cert, []byte(`"related":false`), []byte(`"related":true`), 1)
	}
	forged := []Record{flipped, swapped, doctored}
	isForged := func(key string) bool {
		return key == flipped.Key || key == swapped.Key || key == doctored.Key
	}

	dir := t.TempDir()
	writeLedger(t, dir, noTimer, append(append([]Record(nil), recs[:honest]...), forged...))

	// open opens the ledger afresh, so every read below is a first read.
	open := func(t *testing.T) *Ledger {
		t.Helper()
		l, err := Open(dir, noTimer)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		if st := l.Stats(); st.Records != len(recs) || st.Rejected != 0 || st.ChainBroken {
			t.Fatalf("Open must index the intact forgeries unread: %+v", st)
		}
		return l
	}
	// quarantinedAll checks that the reads quarantined the three forgeries
	// and nothing else, without reading as a chain break.
	quarantinedAll := func(t *testing.T, l *Ledger) {
		t.Helper()
		st := l.Stats()
		if st.Rejected != 3 || st.Records != honest {
			t.Fatalf("rejected = %d records = %d, want 3 forgeries of %d; rejections: %v",
				st.Rejected, st.Records, len(recs), l.Rejections())
		}
		if st.ChainBroken {
			t.Fatal("forged content must not read as a chain break (the bytes are intact)")
		}
	}

	t.Run("lookup", func(t *testing.T) {
		l := open(t)
		for _, f := range forged {
			if r, _, ok := l.Lookup(f.Key, f.MaxPairs, f.MaxClosure, f.MaxSubs); ok {
				t.Fatalf("Lookup served forged record %d", r.Seq)
			}
		}
		quarantinedAll(t, l)
	})
	t.Run("proof", func(t *testing.T) {
		l := open(t)
		for _, f := range forged {
			if _, err := l.Proof(f.KeyHash); err != ErrUnknownKey {
				t.Fatalf("Proof(forged) = %v, want ErrUnknownKey", err)
			}
		}
		quarantinedAll(t, l)
	})
	t.Run("export", func(t *testing.T) {
		l := open(t)
		var sb strings.Builder
		n, err := l.Export(&sb)
		if err != nil || n != honest {
			t.Fatalf("Export: n=%d err=%v, want %d honest records", n, err, honest)
		}
		for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
			var r Record
			if err := json.Unmarshal([]byte(line), &r); err != nil || isForged(r.Key) {
				t.Fatalf("exported line %q (%v)", line, err)
			}
		}
		quarantinedAll(t, l)
	})
	t.Run("replay", func(t *testing.T) {
		l := open(t)
		if n := l.Replay(func(r *Record, _ *cert.Certificate) {
			if isForged(r.Key) {
				t.Fatalf("forged record %q replayed as trusted", r.Key)
			}
		}); n != honest {
			t.Fatalf("replayed %d, want %d honest records", n, honest)
		}
		quarantinedAll(t, l)
	})
}

// TestSegmentRolling forces multiple segments and re-reads across them.
func TestSegmentRolling(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	cfg := Config{BatchSize: 3, MaxWait: -1, SegmentBytes: 1024}
	writeLedger(t, dir, cfg, recs)

	names, err := segmentNames(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("expected multiple segments, got %v (%v)", names, err)
	}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if n := l.Replay(func(*Record, *cert.Certificate) {}); n != len(recs) {
		t.Fatalf("replayed %d across segments, want %d", n, len(recs))
	}
	if st := l.Stats(); st.Segments != len(names) || st.ChainBroken || st.Rejected != 0 {
		t.Fatalf("stats across segments: %+v", st)
	}
}

// TestClosedLedger pins Close idempotence and the post-Close append error.
func TestClosedLedger(t *testing.T) {
	l, err := Open(t.TempDir(), noTimer)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(Record{}); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestNewRecordRefusals pins the constructors' fail-closed checks:
// NewRecord and NewKeyedRecord refuse the same verdicts, NewKeyedRecord
// without parsing a term, and they build the same record.
func TestNewRecordRefusals(t *testing.T) {
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	rec := certRecord(t, ch, cert.RelLabelled, false, "a!", "a!")
	crt, err := cert.Unmarshal(rec.Cert)
	if err != nil {
		t.Fatal(err)
	}
	long := *crt
	long.P = strings.Repeat("a", certTermBytes) + "!"
	for name, build := range map[string]func(rel string, weak, related bool, crt *cert.Certificate) (Record, error){
		"NewRecord": func(rel string, weak, related bool, crt *cert.Certificate) (Record, error) {
			return NewRecord(rel, weak, 1, 2, 3, related, 4, "why", crt)
		},
		"NewKeyedRecord": func(rel string, weak, related bool, crt *cert.Certificate) (Record, error) {
			return NewKeyedRecord(rec.Key, rel, weak, 1, 2, 3, related, 4, "why", crt)
		},
	} {
		if _, err := build(cert.RelLabelled, false, true, nil); err == nil {
			t.Errorf("%s: nil certificate accepted", name)
		}
		if _, err := build(cert.RelLabelled, false, !crt.Related, crt); err == nil {
			t.Errorf("%s: verdict/certificate disagreement accepted", name)
		}
		if _, err := build(cert.RelBarbed, false, crt.Related, crt); err == nil {
			t.Errorf("%s: relation mismatch accepted", name)
		}
		if _, err := build(cert.RelLabelled, true, crt.Related, crt); err == nil {
			t.Errorf("%s: mode mismatch accepted", name)
		}
		if _, err := build(cert.RelLabelled, false, crt.Related, &long); !errors.Is(err, ErrTermTooLarge) {
			t.Errorf("%s: over-bound term: err = %v, want ErrTermTooLarge", name, err)
		}
	}
	want, err := NewRecord(cert.RelLabelled, false, 1, 2, 3, crt.Related, 4, "why", crt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewKeyedRecord(rec.Key, cert.RelLabelled, false, 1, 2, 3, crt.Related, 4, "why", crt)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("NewKeyedRecord = %+v, %v; NewRecord built %+v", got, err, want)
	}
	// A term that does not parse is the first read's to refuse.
	unparsed := *crt
	unparsed.P = "a!("
	if _, err := NewKeyedRecord(rec.Key, cert.RelLabelled, false, 0, 0, 0, crt.Related, 0, "", &unparsed); err != nil {
		t.Fatalf("NewKeyedRecord parsed a term: %v", err)
	}
}
