package papers

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/syntax"
)

// TestWitnessVerdicts re-derives every claim of Remarks 1–4 with the
// equivalence checkers (experiment E3).
func TestWitnessVerdicts(t *testing.T) {
	ch := equiv.NewChecker(nil)
	for _, w := range Witnesses() {
		claims := map[string]bool{cert.RelLabelled: w.Labelled, cert.RelBarbed: w.Barbed, cert.RelStep: w.Step,
			cert.RelOneStep: w.OneStep, cert.RelCongruence: w.Congruent}
		for _, rel := range cert.Relations {
			r, err := ch.Decide(context.Background(), equiv.Query{Rel: rel, P: w.P, Q: w.Q})
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, rel, err)
			}
			if r.Related != claims[rel] {
				t.Errorf("%s (%s): %s = %v, paper claims %v", w.Name, w.Source, rel, r.Related, claims[rel])
			}
		}
	}
}

// TestWitnessParallelContext reproduces Remark 2(1)'s distinguishing
// composition.
func TestWitnessParallelContext(t *testing.T) {
	ch := equiv.NewChecker(nil)
	var pair Witness
	for _, w := range Witnesses() {
		if w.Name == "remark2-step-pair" {
			pair = w
		}
	}
	r1 := ParallelContext()
	res, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: syntax.Group(pair.P, r1), Q: syntax.Group(pair.Q, r1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Related {
		t.Error("parallel context failed to distinguish the step-bisimilar pair")
	}
}
