package ledger

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/equiv"
)

// proofFor writes a one-record ledger and returns its verified proof.
func proofFor(t *testing.T, rec Record) *InclusionProof {
	t.Helper()
	dir := t.TempDir()
	writeLedger(t, dir, Config{BatchSize: 1, MaxWait: -1}, []Record{rec})
	l, err := Open(dir, Config{MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p, err := l.Proof(rec.KeyHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProof(p); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
	return p
}

// Every field of an inclusion proof is load-bearing: tampering with any of
// them must be detected by VerifyProof alone, no ledger in hand.
func TestVerifyProofTamperMatrix(t *testing.T) {
	recs := allRecords(t)
	base := proofFor(t, recs[0])

	clone := func() *InclusionProof {
		c := *base
		c.Audit = append([]string(nil), base.Audit...)
		return &c
	}
	cases := []struct {
		name   string
		tamper func(*InclusionProof)
		wantIn string
	}{
		{"nil proof", nil, "nil proof"},
		{"garbage record bytes", func(p *InclusionProof) {
			p.Record = json.RawMessage("{not json")
		}, "does not parse"},
		{"key hash swapped", func(p *InclusionProof) {
			p.KeyHash = strings.Repeat("ab", 32)
		}, "key hash"},
		{"seq rewritten", func(p *InclusionProof) {
			p.Seq += 7
		}, "seq"},
		{"audit path not hex", func(p *InclusionProof) {
			if len(p.Audit) == 0 {
				p.Audit = []string{"zz"}
			} else {
				p.Audit[0] = "zz"
			}
		}, "audit"},
		{"audit path truncated short", func(p *InclusionProof) {
			if len(p.Audit) == 0 {
				p.Audit = []string{strings.Repeat("ab", 4)}
			} else {
				p.Audit[0] = strings.Repeat("ab", 4)
			}
		}, "audit"},
		{"root not hex", func(p *InclusionProof) {
			p.Root = "not-hex"
		}, "root"},
		{"root swapped", func(p *InclusionProof) {
			p.Root = strings.Repeat("cd", 32)
		}, "root"},
		{"record bytes re-signed", func(p *InclusionProof) {
			// A different but well-formed record under the same metadata:
			// the leaf hash changes, so the fold misses the root.
			var rec Record
			if err := json.Unmarshal(p.Record, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Pairs += 99
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			p.Record = b
		}, "root"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p *InclusionProof
			if tc.tamper != nil {
				p = clone()
				tc.tamper(p)
			}
			err := VerifyProof(p)
			if err == nil {
				t.Fatal("tampered proof accepted")
			}
			if !strings.Contains(err.Error(), tc.wantIn) {
				t.Errorf("error %q does not name the damage (%q)", err, tc.wantIn)
			}
		})
	}
}

// VerifyRecord is the fail-closed acceptance core shared by replay and
// import: claims that disagree with the certificate's own
// content must be refused even when the certificate itself is genuine.
func TestVerifyRecordClaimMismatches(t *testing.T) {
	recs := allRecords(t)
	dir := t.TempDir()
	writeLedger(t, dir, Config{BatchSize: 1, MaxWait: -1}, recs[:1])
	l, err := Open(dir, Config{MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	honest := recs[0]
	if _, err := l.VerifyRecord(&honest); err != nil {
		t.Fatalf("honest record refused: %v", err)
	}
	// [a=b]c! simplifies to 0 yet is not ~c 0 (the fusion a↦b fires the
	// match): certRecord checks its record keys the terms as queried.
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	congruence := certRecord(t, ch, cert.RelCongruence, false, "[a=b]c!", "0")
	if _, err := l.VerifyRecord(&congruence); err != nil {
		t.Fatalf("honest ~c record refused: %v", err)
	}

	cases := []struct {
		name   string
		tamper func(*Record)
		wantIn string
	}{
		{"certificate bytes garbage", func(r *Record) {
			r.Cert = json.RawMessage("{")
		}, "does not parse"},
		{"relation relabelled", func(r *Record) {
			if r.Rel == "step" {
				r.Rel = "labelled"
			} else {
				r.Rel = "step"
			}
		}, "certificate is for"},
		{"weak flag flipped", func(r *Record) {
			r.Weak = !r.Weak
		}, "certificate is for"},
		{"verdict flipped", func(r *Record) {
			r.Related = !r.Related
		}, "verdict"},
		{"record re-keyed", func(r *Record) {
			r.Key = PairKey(r.Rel, r.Weak, "K(z!)", "K(z!)")
			r.KeyHash = KeyHash(r.Key)
		}, "derive key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := honest
			tc.tamper(&r)
			_, err := l.VerifyRecord(&r)
			if err == nil {
				t.Fatal("mismatching record accepted")
			}
			if !strings.Contains(err.Error(), tc.wantIn) {
				t.Errorf("error %q does not name the mismatch (%q)", err, tc.wantIn)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if got := c.batchSize(); got != 64 {
		t.Errorf("batchSize zero-value default %d, want 64", got)
	}
	if got := c.maxWait(); got != 2*time.Second {
		t.Errorf("maxWait zero-value default %v, want 2s", got)
	}
	if got := c.segmentBytes(); got != 8<<20 {
		t.Errorf("segmentBytes zero-value default %d, want 8MiB", got)
	}
	c = Config{BatchSize: 7, MaxWait: -1, SegmentBytes: 1024}
	if c.batchSize() != 7 || c.maxWait() != -1 || c.segmentBytes() != 1024 {
		t.Errorf("explicit config not honoured: %d %v %d", c.batchSize(), c.maxWait(), c.segmentBytes())
	}
}
