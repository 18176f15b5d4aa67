package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
)

// TestImportTwoSegmentExport is the warm-start pipeline end to end: a
// source ledger small enough in SegmentBytes to roll over several
// segments, exported, imported into a fresh ledger, which then reopens
// with every record trusted and proof-carrying.
func TestImportTwoSegmentExport(t *testing.T) {
	src := t.TempDir()
	// SegmentBytes 1024 rolls certified records across multiple segments
	// (same profile as TestSegmentRolling).
	writeLedger(t, src, Config{BatchSize: 1, MaxWait: -1, SegmentBytes: 1024}, allRecords(t))

	l1, err := Open(src, Config{MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	if segs := l1.Stats().Segments; segs < 2 {
		t.Fatalf("source ledger has %d segment(s), the test needs >= 2", segs)
	}
	var export bytes.Buffer
	exported, err := l1.Export(&export)
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	if exported == 0 {
		t.Fatal("nothing exported")
	}

	dst := t.TempDir()
	l2, err := Open(dst, Config{BatchSize: 1, MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	var ticks []ImportStats
	st, err := l2.Import(&export, ImportOptions{
		ProgressEvery: 3,
		Progress:      func(s ImportStats) { ticks = append(ticks, s) },
		Reject: func(line int, err error) {
			t.Errorf("line %d rejected on a clean export: %v", line, err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != exported || st.Rejected != 0 {
		t.Fatalf("imported %d rejected %d, want %d/0", st.Imported, st.Rejected, exported)
	}
	if want := exported / 3; len(ticks) != want {
		t.Errorf("%d progress ticks for %d lines at cadence 3, want %d", len(ticks), st.Lines, want)
	}
	for i, tick := range ticks {
		if tick.Lines != (i+1)*3 {
			t.Errorf("tick %d at %d lines, want %d", i, tick.Lines, (i+1)*3)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// The destination must reopen fully trusted: every imported record
	// re-verifies, is sealed, and the counts match the source.
	l3, err := Open(dst, Config{MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	got := l3.Stats()
	if got.Records != exported || got.Rejected != 0 || got.ChainBroken {
		t.Fatalf("reopened import: %+v, want %d trusted records", got, exported)
	}
}

// TestImportRejectsTamperedLines: garbage and forged lines are counted,
// reported with their line numbers, and skipped — the healthy records
// around them still land.
func TestImportRejectsTamperedLines(t *testing.T) {
	src := t.TempDir()
	writeLedger(t, src, Config{BatchSize: 1, MaxWait: -1}, allRecords(t))
	l1, err := Open(src, Config{MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	exported, err := l1.Export(&export)
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(export.String(), "\n"), "\n")
	if len(lines) != exported {
		t.Fatalf("%d export lines for %d records", len(lines), exported)
	}
	// Forge line 2: flip its verdict without touching the certificate.
	forged := strings.Replace(lines[1], `"related":true`, `"related":false`, 1)
	if forged == lines[1] {
		forged = strings.Replace(lines[1], `"related":false`, `"related":true`, 1)
	}
	if forged == lines[1] {
		t.Fatal("could not forge the verdict bit of line 2")
	}
	lines[1] = forged
	// And insert pure garbage as line 4.
	lines = append(lines[:3], append([]string{"{not json"}, lines[3:]...)...)
	input := strings.Join(lines, "\n") + "\n"

	dst := t.TempDir()
	l2, err := Open(dst, Config{BatchSize: 1, MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	var badLines []int
	st, err := l2.Import(strings.NewReader(input), ImportOptions{
		Reject: func(line int, err error) { badLines = append(badLines, line) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 2 || st.Imported != exported-1 {
		t.Fatalf("imported %d rejected %d, want %d/2", st.Imported, st.Rejected, exported-1)
	}
	if len(badLines) != 2 || badLines[0] != 2 || badLines[1] != 4 {
		t.Fatalf("rejected lines %v, want [2 4]", badLines)
	}

	l3, err := Open(dst, Config{MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := l3.Stats(); got.Records != exported-1 || got.Rejected != 0 {
		t.Fatalf("reopened import: %+v, want %d trusted records", got, exported-1)
	}
}

// TestImportRejectsTooDeepTerm: a line whose certificate names a term
// nested past parser.MaxDepth is counted Rejected with an error wrapping
// parser.ErrTooDeep that quotes only an excerpt of the term, and the import
// goes on to the next line.
func TestImportRejectsTooDeepTerm(t *testing.T) {
	good := allRecords(t)[0]
	var crt cert.Certificate
	err := json.Unmarshal(good.Cert, &crt)
	if err != nil {
		t.Fatal(err)
	}
	crt.P = strings.Repeat("a!.", parser.MaxDepth) + "a!" // MaxDepth+1 prefixes
	bad := good
	if bad.Cert, err = json.Marshal(&crt); err != nil {
		t.Fatal(err)
	}
	var input bytes.Buffer
	enc := json.NewEncoder(&input)
	for _, r := range []Record{bad, good} {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}

	l, err := Open(t.TempDir(), Config{BatchSize: 1, MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var rejectErr error
	st, err := l.Import(&input, ImportOptions{Reject: func(_ int, err error) { rejectErr = err }})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.Imported != 1 {
		t.Fatalf("imported %d rejected %d, want 1/1", st.Imported, st.Rejected)
	}
	if !errors.Is(rejectErr, parser.ErrTooDeep) {
		t.Fatalf("reject err = %v, want parser.ErrTooDeep", rejectErr)
	}
	if n := len(rejectErr.Error()); n >= 1<<10 {
		t.Fatalf("reject error is %d bytes, want under 1 KiB", n)
	}
}

// TestImportRejectsTooLargeTerm: a line whose certificate names a term past
// the certificate term bound is counted Rejected with an error wrapping
// ErrTermTooLarge, refused before the term is parsed, and the import goes
// on to the next line.
func TestImportRejectsTooLargeTerm(t *testing.T) {
	good := allRecords(t)[0]
	var crt cert.Certificate
	err := json.Unmarshal(good.Cert, &crt)
	if err != nil {
		t.Fatal(err)
	}
	crt.Q = strings.Repeat("a!|", certTermBytes/3) + "a!" // one byte past the bound
	bad := good
	if bad.Cert, err = json.Marshal(&crt); err != nil {
		t.Fatal(err)
	}
	var input bytes.Buffer
	enc := json.NewEncoder(&input)
	for _, r := range []Record{bad, good} {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}

	l, err := Open(t.TempDir(), Config{BatchSize: 1, MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var rejectErr error
	st, err := l.Import(&input, ImportOptions{Reject: func(_ int, err error) { rejectErr = err }})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.Imported != 1 {
		t.Fatalf("imported %d rejected %d, want 1/1", st.Imported, st.Rejected)
	}
	if !errors.Is(rejectErr, ErrTermTooLarge) {
		t.Fatalf("reject err = %v, want ErrTermTooLarge", rejectErr)
	}
	if n := len(rejectErr.Error()); n >= 1<<10 {
		t.Fatalf("reject error is %d bytes, want under 1 KiB", n)
	}
}
