package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/parser"
)

// segment is the one segment file of the fixture ledgers.
const segment = "seg-000001.log"

// fixtureRecords decides five distinct labelled pairs, certified.
func fixtureRecords(t *testing.T) []ledger.Record {
	t.Helper()
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	var recs []ledger.Record
	for _, pq := range []struct {
		p, q string
		weak bool
	}{
		{"a!", "a!", false},
		{"a! | b!", "a!.b! + b!.a!", false},
		{"tau.a!", "a!", true},
		{"a!", "b!", false},
		{"a?(x).x!", "a?(y).y!", false},
	} {
		p, err := parser.Parse(pq.p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := parser.Parse(pq.q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, Weak: pq.weak, P: p, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ledger.NewRecord("labelled", pq.weak, 0, 0, 0, r.Related, r.Pairs, r.Reason, r.Cert)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// fixtures writes two ledgers: clean holds two sealed records; tail holds
// the same two plus three appended but not yet sealed, the state of a
// running writer's directory. It returns both directories and the records.
func fixtures(t *testing.T) (clean, tail string, recs []ledger.Record) {
	t.Helper()
	recs = fixtureRecords(t)
	live := t.TempDir()
	w, err := ledger.Open(live, ledger.Config{BatchSize: 64, MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, r := range recs {
		if i == 2 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
			clean = copyLedger(t, live)
		}
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return clean, copyLedger(t, live), recs
}

// copyLedger copies the segment of the ledger at src into a fresh directory.
func copyLedger(t *testing.T, src string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(src, segment))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, segment), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func readSegment(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segment))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// exportOf runs export on dir and returns the JSONL stream.
func exportOf(t *testing.T, dir string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"export", dir}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("export: exit %d (%s)", code, stderr.String())
	}
	return stdout.Bytes()
}

// TestRunExitCodes pins the exit status that scripts and CI rely on: 0 on
// success, 1 when verification fails or a required input is missing, 2 on
// a usage error.
func TestRunExitCodes(t *testing.T) {
	clean, tail, recs := fixtures(t)

	// A sealed record's payload byte flipped: the checksum fails and the
	// seal covering it no longer matches.
	flipped := copyLedger(t, clean)
	seg := readSegment(t, flipped)
	seg[bytes.Index(seg, []byte(`"rel"`))+2] ^= 1
	if err := os.WriteFile(filepath.Join(flipped, segment), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	stream := exportOf(t, clean)
	forged := bytes.Replace(stream, []byte(`"related":true`), []byte(`"related":false`), 1)
	if bytes.Equal(forged, stream) {
		t.Fatal("the export stream has no related record to forge")
	}

	cases := []struct {
		name   string
		args   []string
		stdin  []byte
		code   int
		stderr string // a substring stderr must contain
	}{
		{name: "verify a clean ledger", args: []string{"verify", clean}, code: 0},
		{name: "verify a ledger with an unsealed tail", args: []string{"verify", tail}, code: 0},
		{name: "verify a flipped payload byte", args: []string{"verify", flipped}, code: 1, stderr: "REJECTED"},
		{name: "stats", args: []string{"stats", tail}, code: 0},
		{name: "proof of a sealed record", args: []string{"proof", "-key", recs[0].KeyHash, tail}, code: 0, stderr: "proof verified"},
		{name: "proof without -key", args: []string{"proof", clean}, code: 1, stderr: "-key"},
		{name: "proof of an unknown key", args: []string{"proof", "-key", "00", clean}, code: 1, stderr: "no record"},
		{name: "import a forged line", args: []string{"import", "-quiet", t.TempDir()}, stdin: forged, code: 1},
		{name: "import reports the forged line", args: []string{"import", t.TempDir()}, stdin: forged, code: 1, stderr: "line 1 REJECTED"},
		{name: "no arguments", code: 2, stderr: "usage"},
		{name: "unknown subcommand", args: []string{"check", clean}, code: 2, stderr: "bpiledger verify"},
		{name: "bad flag", args: []string{"verify", "-x", clean}, code: 2, stderr: "-x"},
		{name: "no directory", args: []string{"stats"}, code: 2, stderr: "bpiledger stats"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, bytes.NewReader(tc.stdin), &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestExportImportRoundTrip pipes export of one ledger into import on a
// fresh directory; the copy verifies and holds every record.
func TestExportImportRoundTrip(t *testing.T) {
	clean, _, _ := fixtures(t)
	dst := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"import", dst}, bytes.NewReader(exportOf(t, clean)), &stdout, &stderr); code != 0 {
		t.Fatalf("import: exit %d (%s)", code, stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"verify", dst}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("verify the imported ledger: exit %d (%s)", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "2 records verified, 0 rejected, 1 batches") {
		t.Errorf("verify the imported ledger: %q", stdout.String())
	}
}

// TestInspectionLeavesTailUnchanged runs each read-only subcommand on a
// ledger whose tail a writer has not sealed yet. The log must be byte for
// byte as it was: sealing another writer's tail would make that writer's
// next seal disagree with the records on disk.
func TestInspectionLeavesTailUnchanged(t *testing.T) {
	_, tail, recs := fixtures(t)
	for _, args := range [][]string{
		{"stats"},
		{"verify"},
		{"proof", "-key", recs[0].KeyHash},
		{"export"},
	} {
		t.Run(args[0], func(t *testing.T) {
			dir := copyLedger(t, tail)
			before := readSegment(t, dir)
			var stdout, stderr bytes.Buffer
			if code := run(append(args, dir), nil, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d (%s)", code, stderr.String())
			}
			if after := readSegment(t, dir); !bytes.Equal(before, after) {
				t.Errorf("%s changed the segment: %d -> %d bytes", args[0], len(before), len(after))
			}
		})
	}
}

// TestInspectionLeavesTornTailUnchanged runs each read-only subcommand on
// a ledger whose last frame is torn, as it is while a writer is in the
// middle of appending it. Inspection notes the torn tail and must not cut
// it: the writer may still be writing that frame.
func TestInspectionLeavesTornTailUnchanged(t *testing.T) {
	_, tail, recs := fixtures(t)
	torn := append(readSegment(t, tail), readSegment(t, tail)[:7]...) // a frame header cut short
	for _, args := range [][]string{
		{"stats"},
		{"verify"},
		{"proof", "-key", recs[0].KeyHash},
		{"export"},
	} {
		t.Run(args[0], func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segment), torn, 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(append(args, dir), nil, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d (%s)", code, stderr.String())
			}
			if after := readSegment(t, dir); !bytes.Equal(torn, after) {
				t.Errorf("%s changed the torn segment: %d -> %d bytes", args[0], len(torn), len(after))
			}
		})
	}
}
