package stress

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// TestSizes pins the exact LTS state counts the generators advertise — the
// bench curve labels and the 10^5-state claim of the largest ladder rung
// rest on these formulas. Only the sub-20k rungs are explored here (the
// bigger ladder rungs take tens of seconds and share the same meshStates
// formula the explored meshes pin).
func TestSizes(t *testing.T) {
	sys := semantics.NewSystem(nil)
	cases := append(Corpus(), GoldenMesh(), Ladder()[0])
	for _, c := range cases {
		g, err := lts.Explore(sys, []syntax.Proc{c.P}, lts.Options{
			AutonomousOnly: true, MaxStates: 1 << 17,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if g.Truncated {
			t.Fatalf("%s: truncated at %d states", c.Name, g.NumStates())
		}
		if g.NumStates() != c.States {
			t.Errorf("%s: %d states, config advertises %d", c.Name, g.NumStates(), c.States)
		}
	}
	if biggest := Ladder()[len(Ladder())-1]; biggest.States < 100_000 {
		t.Errorf("largest ladder rung %s has %d advertised states, want >= 1e5", biggest.Name, biggest.States)
	}
}

// newChecker returns a certifying, stress-budgeted checker over store (the
// pair spaces here exceed the default MaxPairs).
func newChecker(store *equiv.Store) *equiv.Checker {
	ch := equiv.NewCheckerWithStore(store)
	ch.MaxPairs = 1 << 18
	ch.Certify = true
	return ch
}

// TestWorkerLadderDeterministic decides each corpus pair — strong step and
// strong barbed, certification on — sequentially, requiring a related
// verdict whose certificate the independent verifier accepts. It then
// re-decides the same queries with workers ∈ {2,4,8} goroutines, each with
// its own checker over one shared store (as bpid's worker pool runs them),
// and requires every full Result (verdict, pair count, reason, certificate)
// to equal the sequential one. Run under -race this doubles as the
// shared-store race test on real topologies.
func TestWorkerLadderDeterministic(t *testing.T) {
	type query struct {
		name string
		q    equiv.Query
	}
	var queries []query
	for _, c := range Corpus() {
		queries = append(queries,
			query{c.Name + "/step", equiv.Query{Rel: cert.RelStep, P: c.P, Q: c.Q}},
			query{c.Name + "/barbed", equiv.Query{Rel: cert.RelBarbed, P: c.P, Q: c.Q}})
	}
	want := make([]equiv.Result, len(queries))
	for i, q := range queries {
		r, err := newChecker(equiv.NewStore(nil)).Decide(context.Background(), q.q)
		if err != nil {
			t.Fatalf("%s sequential: %v", q.name, err)
		}
		if !r.Related {
			t.Fatalf("%s: rotation not bisimilar: %s", q.name, r.Reason)
		}
		if r.Cert == nil {
			t.Fatalf("%s: no certificate", q.name)
		}
		if err := cert.Verify(r.Cert); err != nil {
			t.Fatalf("%s: certificate rejected: %v", q.name, err)
		}
		want[i] = r
	}
	for _, w := range []int{2, 4, 8} {
		store := equiv.NewStore(nil)
		got := make([]equiv.Result, len(queries))
		errs := make([]error, len(queries))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ch := newChecker(store)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(queries) {
						return
					}
					got[i], errs[i] = ch.Decide(context.Background(), queries[i].q)
				}
			}()
		}
		wg.Wait()
		for i, q := range queries {
			if errs[i] != nil {
				t.Fatalf("%s workers=%d: %v", q.name, w, errs[i])
			}
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s workers=%d: result diverges from sequential", q.name, w)
			}
		}
	}
}

// TestGoldenMeshPinned is the determinism golden: the mid-size gossip mesh's
// strong-step verdict, explored-pair count and certificate hash are pinned
// to a golden file and must be reproduced bit-for-bit.
func TestGoldenMeshPinned(t *testing.T) {
	c := GoldenMesh()
	r, err := newChecker(equiv.NewStore(nil)).Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: c.P, Q: c.Q})
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	raw, err := r.Cert.Marshal()
	if err != nil {
		t.Fatalf("marshal certificate: %v", err)
	}
	sum := sha256.Sum256(raw)
	want := fmt.Sprintf("%s related=%v pairs=%d cert=%s\n",
		c.Name, r.Related, r.Pairs, hex.EncodeToString(sum[:]))
	golden := filepath.Join("testdata", "mesh_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if want != string(pinned) {
		t.Errorf("golden drifted:\n got %s want %s", want, pinned)
	}
}
