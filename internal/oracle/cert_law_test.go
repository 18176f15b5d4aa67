package oracle

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
)

// TestCertLawHoldsOnWitnessPairs runs the cert/checks law directly on the
// historically awkward pairs from the regression corpus: the law must hold
// (empty detail) and must not report an engine error.
func TestCertLawHoldsOnWitnessPairs(t *testing.T) {
	law := lawCertChecks()
	env := NewEnv()
	pairs := [][2]string{
		{"b? | b?(x)", "0"},
		{"tau.a!(b)", "tau.a!(c)"},
		{"tau.a!(b) + tau.a!(c)", "tau.a!(c) + tau.a!(b)"},
		{"nu x.a!(x)", "nu y.a!(y)"},
	}
	for _, pq := range pairs {
		p, err := parser.Parse(pq[0])
		if err != nil {
			t.Fatal(err)
		}
		q, err := parser.Parse(pq[1])
		if err != nil {
			t.Fatal(err)
		}
		detail, err := law.Check(context.Background(), env, p, q)
		if err != nil {
			t.Fatalf("(%s, %s): engine error: %v", pq[0], pq[1], err)
		}
		if detail != "" {
			t.Errorf("(%s, %s): cert/checks violated: %s", pq[0], pq[1], detail)
		}
	}
}

// TestCertRejectedArtifact: a rejected certificate is persisted under
// $BPIFUZZ_CERT_DIR as replayable JSON, and the violation detail names the
// file; without the env var the detail still carries the verifier error.
func TestCertRejectedArtifact(t *testing.T) {
	// A positive labelled certificate claiming a! ~ b! with no evidence at
	// all: the verifier must reject it.
	bogus := &cert.Certificate{
		Version:  cert.Version,
		Relation: cert.RelLabelled,
		Related:  true,
		P:        "a!",
		Q:        "b!",
	}
	verr := cert.Verify(bogus)
	if verr == nil {
		t.Fatal("evidence-free positive certificate accepted by the verifier")
	}

	dir := t.TempDir()
	t.Setenv(CertArtifactDirEnv, dir)
	detail := certRejected("fresh strong labelled", bogus, verr)
	if !strings.Contains(detail, "certificate rejected") {
		t.Fatalf("detail lacks the rejection: %s", detail)
	}
	want := filepath.Join(dir, "rejected-fresh-strong-labelled.json")
	if !strings.Contains(detail, want) {
		t.Fatalf("detail does not name the artifact %s: %s", want, detail)
	}
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	back, err := cert.Unmarshal(data)
	if err != nil {
		t.Fatalf("artifact is not a certificate: %v", err)
	}
	if back.P != "a!" || back.Q != "b!" || !back.Related {
		t.Errorf("artifact does not round-trip the rejected certificate: %+v", back)
	}

	t.Setenv(CertArtifactDirEnv, "")
	detail = certRejected("fresh strong labelled", bogus, verr)
	if strings.Contains(detail, "written to") {
		t.Errorf("artifact path reported with no artifact dir configured: %s", detail)
	}

	// An unwritable artifact dir degrades to the plain detail, not a panic.
	t.Setenv(CertArtifactDirEnv, filepath.Join(dir, "file-not-dir"))
	if err := os.WriteFile(filepath.Join(dir, "file-not-dir"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	detail = certRejected("fresh strong labelled", bogus, verr)
	if strings.Contains(detail, "written to") {
		t.Errorf("artifact path reported despite an unwritable dir: %s", detail)
	}
}

// TestViolationStringNamesReplay: the rendered violation carries the exact
// single-iteration bpifuzz invocation that replays it.
func TestViolationStringNamesReplay(t *testing.T) {
	v := Violation{
		Law: "cert/checks", Tag: "equiv-mutant", ReproSeed: 42,
		P: "a!", Q: "b!", Detail: "fresh strong labelled: certificate rejected",
	}
	s := v.String()
	for _, want := range []string{"cert/checks", "a!", "b!", "bpifuzz -laws cert/checks -seed 42 -budget 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation string lacks %q:\n%s", want, s)
		}
	}
}

// TestCertLawSurvivesCancellation: a cancelled context surfaces as an engine
// error, never as a law violation.
func TestCertLawSurvivesCancellation(t *testing.T) {
	law := lawCertChecks()
	env := NewEnv()
	p, err := parser.Parse("a! | b! | c!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a!.b!.c!")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	detail, cerr := law.Check(ctx, env, p, q)
	if detail != "" {
		t.Errorf("cancelled run reported a violation: %s", detail)
	}
	if cerr == nil || !errors.Is(cerr, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", cerr)
	}
}
