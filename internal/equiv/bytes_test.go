package equiv

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpi/internal/cert"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// TestVerdictBytesPinned pins what Decide answers for all five relations,
// byte for byte, over a random corpus: 150 terms from each of the default and the
// oracle generator at seed 7, each paired with an equivalence-preserving
// and an equivalence-breaking mutant, decided strong and weak. Per relation
// a SHA-256 runs over "related|pairs|reason|certificate" of every query (an
// error is hashed as its message), beside the counts of related and
// unrelated answers, so a corpus drifting to one answer shows; the
// one-step and congruence rows carry no pair count or Reason. The store
// prints a term as it was first interned, so the certificate bytes also
// pin the order in which queries intern their terms. UPDATE_GOLDEN=1
// regenerates testdata/verdict_bytes.golden.
func TestVerdictBytesPinned(t *testing.T) {
	var pairs [][2]syntax.Proc
	for _, cfg := range []brand.Config{brand.Default(), brand.OracleConfig()} {
		g := brand.New(7, cfg)
		for i := 0; i < 150; i++ {
			p := g.Term()
			pairs = append(pairs, [2]syntax.Proc{p, g.MutateEquiv(p)}, [2]syntax.Proc{p, g.MutateBreak(p)})
		}
	}
	type tally struct {
		h                         hash.Hash
		related, unrelated, fails int
	}
	tallies := make([]tally, len(cert.Relations))
	for i := range tallies {
		tallies[i].h = sha256.New()
	}
	store := NewStore(nil)
	for _, pq := range pairs {
		for _, weak := range []bool{false, true} {
			for i, rel := range cert.Relations {
				ch := NewCheckerWithStore(store)
				ch.Certify = true
				r, err := ch.Decide(context.Background(), Query{Rel: rel, Weak: weak, P: pq[0], Q: pq[1]})
				tl := &tallies[i]
				if err != nil {
					tl.fails++
					fmt.Fprintf(tl.h, "error|%s\n", err)
					continue
				}
				data, err := r.Cert.Marshal()
				if err != nil {
					t.Fatalf("%s %s vs %s: marshal certificate: %v", rel, syntax.String(pq[0]), syntax.String(pq[1]), err)
				}
				if r.Related {
					tl.related++
				} else {
					tl.unrelated++
				}
				fmt.Fprintf(tl.h, "%v|%d|%s|%s\n", r.Related, r.Pairs, r.Reason, data)
			}
		}
	}
	var sb strings.Builder
	for i, rel := range cert.Relations {
		tl := tallies[i]
		fmt.Fprintf(&sb, "%s related=%d unrelated=%d errors=%d sha256=%x\n",
			rel, tl.related, tl.unrelated, tl.fails, tl.h.Sum(nil))
	}
	got := sb.String()
	golden := filepath.Join("testdata", "verdict_bytes.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("verdict bytes drifted from %s (UPDATE_GOLDEN=1 regenerates):\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
