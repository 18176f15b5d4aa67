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
	"bpi/internal/parser"
)

// writeCert marshals c into dir and returns its path.
func writeCert(t *testing.T, dir, name string, c *cert.Certificate) string {
	t.Helper()
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitCodes pins the exit status and output that scripts rely on:
// 0 with one OK line per verified certificate, 1 for a rejected or
// unreadable certificate, 2 for a usage error.
func TestRunExitCodes(t *testing.T) {
	p, err := parser.Parse("a! | b!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a!.b! + b!.a!")
	if err != nil {
		t.Fatal(err)
	}
	chk := equiv.NewChecker(nil)
	chk.Certify = true
	r, err := chk.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, P: p, Q: q})
	if err != nil || !r.Related || r.Cert == nil {
		t.Fatalf("labelled: related=%v cert=%v err=%v", r.Related, r.Cert != nil, err)
	}
	dir := t.TempDir()
	good := writeCert(t, dir, "good.json", r.Cert)
	goodData, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flippedCert := *r.Cert
	flippedCert.Related = false
	flipped := writeCert(t, dir, "flipped.json", &flippedCert)
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("not a certificate"), 0o644); err != nil {
		t.Fatal(err)
	}
	deep := writeCert(t, dir, "deep.json", &cert.Certificate{
		Version: cert.Version, Relation: cert.RelLabelled, Related: true,
		P: strings.Repeat("a!.", parser.MaxDepth) + "a!", // MaxDepth+1 prefixes
		Q: "0",
	})

	cases := []struct {
		name    string
		args    []string
		stdin   []byte
		code    int
		okLines int    // stdout lines, each reporting OK
		stderr  string // a substring stderr must contain
	}{
		{name: "related pair verifies", args: []string{"verify", good}, code: 0, okLines: 1},
		{name: "version 1 verifies", args: []string{"verify", "../../testdata/cert-v1-onestep-weak.json"}, code: 0, okLines: 1},
		{name: "stdin", args: []string{"verify", "-"}, stdin: goodData, code: 0, okLines: 1},
		{name: "quiet success prints nothing", args: []string{"verify", "-q", good}, code: 0},
		{name: "flipped verdict is rejected", args: []string{"verify", flipped}, code: 1, stderr: "REJECTED"},
		{name: "not JSON", args: []string{"verify", junk}, code: 1, stderr: junk},
		{name: "one bad file fails the run", args: []string{"verify", good, flipped}, code: 1, okLines: 1, stderr: "REJECTED"},
		{name: "term nested past the limit", args: []string{"verify", deep}, code: 1, stderr: "nested levels"},
		{name: "no arguments", code: 2, stderr: "usage"},
		{name: "unknown subcommand", args: []string{"check", good}, code: 2, stderr: "bpicert verify"},
		{name: "unknown flag", args: []string{"verify", "-x", good}, code: 2, stderr: "-x"},
		{name: "no certificate named", args: []string{"verify", "-q"}, code: 2, stderr: "bpicert verify"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, bytes.NewReader(tc.stdin), &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			var lines []string
			if out := strings.TrimSuffix(stdout.String(), "\n"); out != "" {
				lines = strings.Split(out, "\n")
			}
			if len(lines) != tc.okLines {
				t.Errorf("stdout has %d lines, want %d: %q", len(lines), tc.okLines, stdout.String())
			}
			for _, l := range lines {
				if !strings.Contains(l, ": OK ") {
					t.Errorf("stdout line %q does not report OK", l)
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
			if n := stderr.Len(); n >= 1<<10 {
				t.Errorf("stderr is %d bytes, want under 1 KiB", n)
			}
		})
	}
}
