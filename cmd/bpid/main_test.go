package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes pins the exit status scripts rely on: 2 on a usage
// error, 0 for -h, and 1 when the daemon cannot start.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	unparsable := write("unparsable.bpi", "let Echo(a) = a?(x).x!(\n")
	invalid := write("invalid.bpi", "let Leak(a) = b!\n")
	regular := write("regular-file", "not a ledger directory\n")
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // a substring stderr must contain
	}{
		{name: "unknown flag", args: []string{"-x"}, code: 2, stderr: "-x"},
		{name: "deleted -queue", args: []string{"-queue", "8"}, code: 2, stderr: "-queue"},
		{name: "-h", args: []string{"-h"}, code: 0, stderr: "-admission-queue"},
		{name: "missing -f file", args: []string{"-f", filepath.Join(dir, "none.bpi")}, code: 1, stderr: "none.bpi"},
		{name: "unparsable definitions", args: []string{"-f", unparsable}, code: 1, stderr: "parser:"},
		{name: "invalid definitions", args: []string{"-f", invalid}, code: 1, stderr: "free names"},
		{name: "-ledger on a regular file", args: []string{"-ledger", regular}, code: 1, stderr: "not a directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestRunServesAndDrains boots the daemon on an ephemeral port, reads the
// bound address from its log, checks /healthz, and cancels the context:
// run must drain and exit 0.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stdout bytes.Buffer
	exited := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"-addr", "127.0.0.1:0"}, &stdout, pw)
		pw.Close()
		exited <- code
	}()
	sc := bufio.NewScanner(pr)
	addr := ""
	for addr == "" && sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		t.Fatalf("no listening line in the log (exit %d)", <-exited)
	}
	go io.Copy(io.Discard, pr) // keep the log flowing until run returns

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz: status %d body %q", resp.StatusCode, body)
	}
	cancel()
	if code := <-exited; code != 0 {
		t.Fatalf("exit %d after the drain, want 0", code)
	}
	if !strings.Contains(stdout.String(), "drained cleanly") {
		t.Errorf("stdout %q does not report a clean drain", stdout.String())
	}
}
