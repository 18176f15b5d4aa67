package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/protocols"
)

// bpi runs the command on args and returns its exit status and output.
func bpi(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// ring is a program file: a three-node token ring.
const ring = "../../testdata/token_ring.bpi"

// TestRunExitCodes pins each subcommand's output and the exit status that
// scripts rely on: 0 on success and for help, 1 when the command fails, 2
// on a usage error.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "g.dot")
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // a substring stdout must contain
		stderr string // a substring stderr must contain
	}{
		{name: "steps", args: []string{"steps", "a!(b) | a?(x).x!"}, code: 0,
			stdout: "a!(b) | a?(x).x!\n  --a!(b)--> 0 | b!\n  --a?(x)--> a!(b) | x!\n"},
		{name: "steps of a program file", args: []string{"steps", "-f", ring}, code: 0, stdout: "--a!(tok)-->"},
		{name: "steps without transitions", args: []string{"steps", "0"}, code: 0, stdout: "(no transitions)"},
		{name: "discards", args: []string{"discards", "a?", "b"}, code: 0, stdout: "a?() discards b\n"},
		{name: "listening", args: []string{"discards", "a?", "a"}, code: 0, stdout: "a?() is listening on a\n"},
		{name: "explore", args: []string{"explore", "a!.b!"}, code: 0, stdout: "states: 3, edges: 2"},
		{name: "explore -auto", args: []string{"explore", "-auto", "a?.b! | c!"}, code: 0, stdout: "states: 2, edges: 1"},
		{name: "explore -dot", args: []string{"explore", "-dot", dot, "a!.b!"}, code: 0, stdout: "wrote " + dot},
		{name: "explore warns of mismatched listeners", args: []string{"explore", "a!(b) | a?(x,y)"}, code: 0,
			stderr: "warning: "},
		{name: "run", args: []string{"run", "-trace", "a!.b!.c!"}, code: 0,
			stdout: "  0: a!\n  1: b!\n  2: c!\nquiescent after 3 steps\nfinal: 0\n"},
		{name: "run -stop", args: []string{"run", "-stop", "b", "a!.b!.c!"}, code: 0, stdout: "stopped after 2 steps at 1: b!\nfinal: c!\n"},
		{name: "run -n", args: []string{"run", "-n", "2", "(rec T(a). a!.T(a))(tick)"}, code: 0, stdout: "step budget reached (2)"},
		{name: "fmt", args: []string{"fmt", "a!|0 + b?"}, code: 0, stdout: "a! | 0 + b?()\n"},
		{name: "fmt of a program file", args: []string{"fmt", "-f", ring}, code: 0,
			stdout: "let Node(in,out) = in?(t).out!(t).Node(in,out)\n"},
		{name: "protocols -list", args: []string{"protocols", "-list"}, code: 0, stdout: "election-3/deaf-2"},
		{name: "protocols -run", args: []string{"protocols", "-run", "gossip/star-3"}, code: 0,
			stdout: "gossip/star-3: impl and spec are equivalent (step, 21 pairs explored)\n"},
		{name: "protocols -run -terms", args: []string{"protocols", "-run", "election-3/deaf-2", "-terms"}, code: 0,
			stdout: "impl: "},
		{name: "help", args: []string{"help"}, code: 0, stdout: "bpi protocols"},
		{name: "-h on a subcommand", args: []string{"run", "-h"}, code: 0, stderr: "-stop"},

		{name: "unparsable term", args: []string{"steps", "a!("}, code: 1, stderr: "bpi: "},
		{name: "missing term", args: []string{"explore"}, code: 1, stderr: "no term given"},
		{name: "missing program file", args: []string{"fmt", "-f", filepath.Join(dir, "none.bpi")}, code: 1,
			stderr: "none.bpi"},
		{name: "undefined identifier", args: []string{"run", "Foo(a)"}, code: 1,
			stderr: "call to undefined identifier Foo"},
		{name: "wrong arity", args: []string{"steps", "-f", ring, "Node(a)"}, code: 1,
			stderr: "call Node expects 2 args, got 1"},
		{name: "unfold budget", args: []string{"steps", "(rec X(a). X(a))(a)"}, code: 1, stderr: "unfold budget"},
		{name: "unwritable -dot", args: []string{"explore", "-dot", filepath.Join(dir, "no", "g.dot"), "a!"}, code: 1,
			stderr: "g.dot"},
		{name: "explore edge budget", args: []string{"explore", "-n", "64", "a?(x0,x1,x2,x3,x4,x5).0 | b0! | b1! | b2!"},
			code: 1, stderr: "bpi: lts: exploration exceeds its budget of 1024 ground edges"},
		{name: "unknown scenario", args: []string{"protocols", "-run", "gossip/ring-9"}, code: 1,
			stderr: `unknown scenario "gossip/ring-9"`},

		{name: "no subcommand", args: nil, code: 2, stderr: "bpi steps"},
		{name: "unknown subcommand", args: []string{"prove", "a!"}, code: 2, stderr: `unknown command "prove"`},
		{name: "unknown flag", args: []string{"steps", "-x", "a!"}, code: 2, stderr: "-x"},
		{name: "unknown protocols flag", args: []string{"protocols", "-x"}, code: 2, stderr: "-x"},
		{name: "discards without its channel", args: []string{"discards", "a?"}, code: 2,
			stderr: "usage: bpi discards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := bpi(tc.args...)
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
	if raw, err := os.ReadFile(dot); err != nil || !strings.Contains(string(raw), "digraph lts") {
		t.Errorf("explore -dot wrote %q (%v), want a DOT graph", raw, err)
	}
}

// TestProtocolsCertVerifies: the certificate that CI's protocols smoke
// writes for a fault-injected scenario replays under the verifier.
func TestProtocolsCertVerifies(t *testing.T) {
	out := filepath.Join(t.TempDir(), "proto-cert.json")
	code, stdout, stderr := bpi("protocols", "-run", "election-3/deaf-2", "-cert", out)
	if code != 0 || !strings.Contains(stdout, "impl and spec are distinguished") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cert.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(c); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

// TestDeviatingVerdictFails: a verdict other than the scenario expects is a
// failed command. The catalogue's scenarios all conform, so the expectation
// of one is flipped.
func TestDeviatingVerdictFails(t *testing.T) {
	s, ok := protocols.ByName("gossip/star-3")
	if !ok {
		t.Fatal("gossip/star-3 is not in the catalogue")
	}
	s.WantEquiv = !s.WantEquiv
	var out bytes.Buffer
	err := decideScenario(s, false, "", &out)
	if err == nil || !strings.Contains(err.Error(), "verdict equivalent deviates from the scenario's expectation") {
		t.Fatalf("err = %v, want the deviation", err)
	}
}
