package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes pins the exit status and output that CI's
// differential-oracle steps rely on: 0 when every law held or the registry
// was listed, 2 on a usage error.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // a substring stdout must contain
		stderr string // a substring stderr must contain
	}{
		{name: "-list", args: []string{"-list"}, code: 0, stdout: "axioms/instances"},
		{name: "laws held", args: []string{"-daemon=false", "-laws", "axioms/instances", "-budget", "3"}, code: 0,
			stdout: "all laws held"},
		{name: "laws held through the daemon", args: []string{"-laws", "engines/agree", "-budget", "3"}, code: 0,
			stdout: "all laws held"},
		{name: "unknown law", args: []string{"-laws", "no/such-law"}, code: 2, stderr: "no/such-law"},
		{name: "bad flag", args: []string{"-x"}, code: 2, stderr: "-x"},
		{name: "-h", args: []string{"-h"}, code: 0, stderr: "-budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not contain %q", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}
