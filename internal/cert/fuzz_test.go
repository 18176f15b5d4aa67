package cert_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bpi/internal/axioms"
	"bpi/internal/cert"
)

// FuzzVerify feeds certificate JSON to the verifier, which must return,
// never panic, on any certificate Unmarshal accepts. The work bound keeps
// each input cheap, and inputs over 8 KiB are skipped. The seeds are
// engine-made: a positive and a negative certificate for each of the five
// relations, strong and weak, plus an axioms proof; then a version-1
// certificate with move tables from each of the one-step fixture and the
// first record of the ledger bpid wrote at commit 49dd064.
func FuzzVerify(f *testing.F) {
	add := func(crt *cert.Certificate) {
		data, err := crt.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		if len(data) > 8<<10 {
			f.Fatalf("%s seed is %d bytes, over the 8 KiB input bound", crt.Relation, len(data))
		}
		f.Add(data)
	}
	ch := newCertifying()
	for _, weak := range []bool{false, true} {
		for _, pq := range []struct {
			p, q    string
			related bool
		}{
			{"a! | b!", "a!.b! + b!.a!", true},
			{"tau.b!", "tau.c!", false},
		} {
			for _, rel := range []string{cert.RelLabelled, cert.RelBarbed, cert.RelStep, cert.RelOneStep, cert.RelCongruence} {
				crt, ok := pairCert(f, ch, rel, pq.p, pq.q, weak)
				if ok != pq.related {
					f.Fatalf("%s(%s, %s) weak=%v: related=%v, want %v", rel, pq.p, pq.q, weak, ok, pq.related)
				}
				add(crt)
			}
		}
	}
	pr := axioms.NewProver(nil)
	pr.Certify = true
	if proved, err := pr.Decide(mustParse(f, "a! + a!"), mustParse(f, "a!")); err != nil || !proved {
		f.Fatalf("axioms: proved=%v err=%v", proved, err)
	}
	add(pr.Certificate())
	for _, path := range []string{v1OneStep, filepath.Join("..", "ledger", "testdata", "keys-49dd064", "seg-000001.log")} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A ledger record is one JSON object in its frame.
		var rec struct{ Cert json.RawMessage }
		if i := bytes.Index(data, []byte(`{"seq":`)); i >= 0 {
			if err := json.NewDecoder(bytes.NewReader(data[i:])).Decode(&rec); err != nil {
				f.Fatal(err)
			}
			data = rec.Cert
		}
		var hdr struct{ Version int }
		if err := json.Unmarshal(data, &hdr); err != nil || hdr.Version != 1 {
			f.Fatalf("%s: not a version-1 certificate (%v)", path, err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return
		}
		c, err := cert.Unmarshal(data)
		if err != nil {
			return
		}
		_ = (&cert.Verifier{MaxWork: 20_000}).Verify(c)
	})
}
