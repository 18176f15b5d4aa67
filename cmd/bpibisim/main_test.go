package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/service"
)

// bisim runs the command on args and returns its exit status and output.
func bisim(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, nil, &out, &errs)
	return code, out.String(), errs.String()
}

// TestRunExitCodes pins the exit status and output that scripts rely on:
// 0 with one line per decided relation, related or not; 1 when a term, the
// program file or an option combination fails; 2 on a usage error.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	defs := filepath.Join(dir, "defs.bpi")
	if err := os.WriteFile(defs, []byte("let Echo(a) = a?(x).x!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// y is free in C's body: unfolding C(a) under nu y would capture it.
	leaky := filepath.Join(dir, "leaky.bpi")
	if err := os.WriteFile(leaky, []byte("let C(x) = y!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // a substring stdout must contain
		stderr string // a substring stderr must contain
	}{
		{name: "related pair", args: []string{"-rel", "labelled", "a!(b)", "a!(b) | 0"}, code: 0,
			stdout: "labelled     related\n"},
		{name: "unrelated pair", args: []string{"-rel", "labelled", "tau.a!(b)", "tau.a!(c)"}, code: 0,
			stdout: "labelled     NOT related   (strong labelled: tau move of left to a!(b) unmatched (comparing tau.a!(b) with tau.a!(c)))\n"},
		{name: "all five relations", args: []string{"a?", "b?"}, code: 0,
			stdout: "labelled     related\nbarbed       related\nstep         related\n" +
				"one-step     NOT related\ncongruence   NOT related   (closure under all fusions of the free names)\n"},
		{name: "-cert with -rel all", args: []string{"-cert", filepath.Join(dir, "all.json"), "a!", "a!"}, code: 1,
			stderr: "bpibisim: -cert needs a single relation"},
		{name: "unparsable term", args: []string{"a!(", "a!"}, code: 1, stderr: "bpibisim:"},
		{name: "-f resolves a definition", args: []string{"-f", defs, "-rel", "labelled", "Echo(a)", "a?(y).y!"}, code: 0,
			stdout: "labelled     related\n"},
		{name: "undefined identifier without -f", args: []string{"-rel", "labelled", "Echo(a)", "a?(y).y!"}, code: 1,
			stderr: "bpibisim:"},
		{name: "-f with a free name in a definition", args: []string{"-f", leaky, "-rel", "labelled", "nu y.C(a)", "y!"},
			code: 1, stderr: "free names"},
		{name: "unknown relation", args: []string{"-rel", "bogus", "a!", "a!"}, code: 1,
			stderr: `unknown relation "bogus"`},
		{name: "missing program file", args: []string{"-f", filepath.Join(dir, "none.bpi"), "a!", "a!"}, code: 1,
			stderr: "bpibisim:"},
		{name: "-server with -f", args: []string{"-server", "http://127.0.0.1:1", "-f", defs, "a!", "a!"}, code: 1,
			stderr: "exclusive"},
		{name: "one term", args: []string{"a!"}, code: 2, stderr: "usage"},
		{name: "three terms", args: []string{"a!", "a!", "a!"}, code: 2, stderr: "usage"},
		{name: "unknown flag", args: []string{"-x", "a!", "a!"}, code: 2, stderr: "-x"},
		{name: "-h", args: []string{"-h"}, code: 0, stderr: "-rel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := bisim(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout %q does not contain %q", stdout, tc.stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.stderr)
			}
		})
	}
}

// TestCertPerRelation writes a certificate for each single relation, strong
// and weak, and checks that the independent verifier accepts it as
// evidence for that relation.
func TestCertPerRelation(t *testing.T) {
	p, q := "a!(b) | a?(x).x!", "a?(x).x! | a!(b)"
	for _, rel := range cert.Relations {
		for _, weak := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "out.json")
			args := []string{"-rel", rel, "-cert", path}
			if weak {
				args = append(args, "-weak")
			}
			if code, _, stderr := bisim(append(args, p, q)...); code != 0 {
				t.Fatalf("%s weak=%v: exit %d (%s)", rel, weak, code, stderr)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			crt, err := cert.Unmarshal(data)
			if err != nil {
				t.Fatalf("%s weak=%v: %v", rel, weak, err)
			}
			if crt.Relation != rel || crt.Weak != weak {
				t.Errorf("%s weak=%v: certificate is for %s weak=%v", rel, weak, crt.Relation, crt.Weak)
			}
			if err := cert.Verify(crt); err != nil {
				t.Errorf("%s weak=%v: certificate rejected: %v", rel, weak, err)
			}
		}
	}
}

// TestServerMatchesLocal delegates a query to a bpid handler and expects
// the labelled verdict line, Reason included, that the local checker
// prints.
func TestServerMatchesLocal(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ts.Close()
	args := []string{"-rel", "labelled", "tau.a!(b)", "tau.a!(c)"}
	code, local, stderr := bisim(args...)
	if code != 0 {
		t.Fatalf("local: exit %d (%s)", code, stderr)
	}
	code, remote, stderr := bisim(append([]string{"-server", ts.URL}, args...)...)
	if code != 0 {
		t.Fatalf("-server: exit %d (%s)", code, stderr)
	}
	line := func(out string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "labelled ") {
				return l
			}
		}
		return ""
	}
	if line(local) == "" || line(remote) != line(local) {
		t.Errorf("-server printed %q, local %q", line(remote), line(local))
	}
}
