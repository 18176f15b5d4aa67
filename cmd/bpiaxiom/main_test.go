package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

// axiom runs the command on args and returns its exit status and output.
func axiom(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// recursive is a term outside the axiomatisation's finite fragment.
const recursive = "(rec X(a). a!.X(a))(a)"

// TestRunExitCodes pins the exit status and output that scripts rely on:
// 0 when the answer was printed, provable or not; 1 when a term does not
// parse or lies outside what the subcommand covers, or a budget runs out;
// 2 on a usage error.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // a substring stdout must contain
		stderr string // a substring stderr must contain
	}{
		{name: "list", args: []string{"list"}, code: 0, stdout: "(A) H: noisy saturation\n"},
		{name: "hnf", args: []string{"hnf", "a! + b?"}, code: 0, stdout: "as a term: "},
		{name: "expand", args: []string{"expand", "a! + b?", "b!"}, code: 0, stdout: "a!.(0 | b!) + [b=b]b!.(0 | 0) + b?().(0 | b!)\n"},
		{name: "decide provable", args: []string{"decide", "a! + a!", "a!"}, code: 0,
			stdout: "A ⊢ a! + a! = a!\n"},
		{name: "decide not provable", args: []string{"decide", "a?", "b?"}, code: 0,
			stdout: "not provable (hence not strongly congruent):\n  a?() ≠ b?()\n"},
		{name: "decide -v traces the derivation", args: []string{"decide", "-v", "a! + a!", "a!"}, code: 0,
			stdout: "(Lemma 19)"},
		{name: "unparsable term", args: []string{"decide", "a!(", "a!"}, code: 1, stderr: "bpiaxiom:"},
		{name: "recursive term to decide", args: []string{"decide", recursive, "a!"}, code: 1,
			stderr: "bpiaxiom: axioms: the axiomatisation covers finite processes only\n"},
		{name: "recursive term to hnf", args: []string{"hnf", recursive}, code: 1,
			stderr: "hnf requires a finite process"},
		{name: "recursive operand to expand", args: []string{"expand", recursive, "a!"}, code: 1,
			stderr: "not a sum of prefixes"},
		{name: "restricted operand to expand", args: []string{"expand", "nu x.x!", "a!"}, code: 1,
			stderr: "not a sum of prefixes"},
		{name: "world budget", args: []string{"decide", "a!.b!.c!.d!.e!.f!", "0"}, code: 1,
			stderr: "6 free names exceed the world budget (5)"},
		{name: "-cert with -server", args: []string{"-server", "http://127.0.0.1:1", "-cert", "c.json", "decide", "a!", "a!"},
			code: 1, stderr: "local-only"},
		{name: "no subcommand", args: nil, code: 2, stderr: "bpiaxiom hnf"},
		{name: "hnf without its term", args: []string{"hnf"}, code: 2, stderr: "bpiaxiom hnf"},
		{name: "expand with one operand", args: []string{"expand", "a!"}, code: 2, stderr: "bpiaxiom hnf"},
		{name: "decide with one operand", args: []string{"decide", "a!"}, code: 2, stderr: "bpiaxiom hnf"},
		{name: "decide -v with one operand", args: []string{"decide", "-v", "a!"}, code: 2, stderr: "bpiaxiom hnf"},
		{name: "unknown subcommand", args: []string{"prove", "a!", "a!"}, code: 2, stderr: "bpiaxiom hnf"},
		{name: "unknown flag", args: []string{"-x", "list"}, code: 2, stderr: "-x"},
		{name: "-h", args: []string{"-h"}, code: 0, stderr: "-server URL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := axiom(tc.args...)
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

// TestExpandOutput pins one expansion: the output-and-discard summand of
// a!(b).c!, guarded by a ∉ {a}, is dropped (C4), and no ‖ is left outside
// a prefix.
func TestExpandOutput(t *testing.T) {
	code, stdout, stderr := axiom("expand", "a!(b).c! + d?(x).x!", "a?(y).y! + e!(f)")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, stderr)
	}
	want := "[d=a]d?(x·1).(x·1! | x·1!) + [a=a]a!(b).(c! | b!) + [e=d]e!(f).(f! | 0) + " +
		"[e=d](0, e!(f).((a!(b).c! + d?(x).x!) | 0)) + [d=a](0, d?(x).(x! | (a?(y).y! + e!(f)))) + " +
		"[a=d](0, a?(y).((a!(b).c! + d?(x).x!) | y!))\n"
	if stdout != want {
		t.Errorf("expand printed\n %s want\n %s", stdout, want)
	}
	e, err := parser.Parse(strings.TrimSpace(stdout))
	if err != nil {
		t.Fatal(err)
	}
	var walk func(p syntax.Proc) bool
	walk = func(p syntax.Proc) bool {
		switch t := p.(type) {
		case syntax.Par:
			return true
		case syntax.Sum:
			return walk(t.L) || walk(t.R)
		case syntax.Match:
			return walk(t.Then) || walk(t.Else)
		case syntax.Res:
			return walk(t.Body)
		}
		return false
	}
	if walk(e) {
		t.Errorf("a ‖ is left outside a prefix: %s", stdout)
	}
}

// TestCertVerifies writes decide's proof object and checks that the
// independent verifier accepts it.
func TestCertVerifies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "proof.json")
	code, _, stderr := axiom("-cert", path, "decide", "a!(b) | c?", "c? | a!(b)")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crt, err := cert.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(crt); err != nil {
		t.Errorf("proof object rejected: %v", err)
	}
}

// TestServerMatchesLocal delegates decide to a bpid handler and expects the
// verdict line the local prover prints; a recursive term fails there too.
func TestServerMatchesLocal(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ts.Close()
	for _, pair := range [][2]string{{"a! + a!", "a!"}, {"a?", "b?"}} {
		code, local, stderr := axiom("decide", pair[0], pair[1])
		if code != 0 {
			t.Fatalf("local: exit %d (%s)", code, stderr)
		}
		code, remote, stderr := axiom("-server", ts.URL, "decide", pair[0], pair[1])
		if code != 0 {
			t.Fatalf("-server: exit %d (%s)", code, stderr)
		}
		if remote != local {
			t.Errorf("-server printed %q, local %q", remote, local)
		}
	}
	if code, _, stderr := axiom("-server", ts.URL, "decide", recursive, "a!"); code != 1 || !strings.Contains(stderr, "finite processes only") {
		t.Errorf("recursive term with -server: exit %d, stderr %q", code, stderr)
	}
}
