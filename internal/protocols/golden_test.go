package protocols

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCertsPinned pins one mid-size scenario per algorithm family:
// the verdict, explored-pair count and SHA-256 of the marshalled
// certificate are written to a golden file and must be reproduced
// bit-for-bit. Any drift in exploration order, certificate
// layout or the generators themselves trips this before it can silently
// invalidate recorded ledger entries. Regenerate with UPDATE_GOLDEN=1.
func TestGoldenCertsPinned(t *testing.T) {
	mids := []string{
		"gossip/star-3",
		"election-3",
		"multicast-3",
		"bbc-3",
		"tokenring-3",
	}
	var got string
	for _, name := range mids {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("golden scenario %s missing from catalogue", name)
		}
		r, err := Decide(NewChecker(), s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Cert == nil {
			t.Fatalf("%s: no certificate", name)
		}
		raw, err := r.Cert.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal certificate: %v", name, err)
		}
		sum := sha256.Sum256(raw)
		got += fmt.Sprintf("%s related=%v pairs=%d cert=%s\n",
			name, r.Related, r.Pairs, hex.EncodeToString(sum[:]))
	}
	golden := filepath.Join("testdata", "catalogue_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(pinned) {
		t.Errorf("golden drifted:\n got:\n%s want:\n%s", got, pinned)
	}
}
