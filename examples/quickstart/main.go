// Quickstart: build broadcast systems, inspect their semantics, decide
// equivalences, prove axioms and execute — a tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	bpi "bpi"
)

func main() {
	// 1. Broadcast reaches every listener in a single step.
	p := bpi.MustParse("a!(b) | a?(x).x! | a?(y).y!")
	sys := bpi.NewSystem(nil)
	ts, err := sys.Steps(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("p =", bpi.Format(p))
	for _, t := range ts {
		fmt.Println("  ", t)
	}

	// 2. The signature law of broadcast bisimilarity: pure input prefixes
	// are unobservable, so a? ~ b? — yet outputs are not: a! ≁ b!.
	ch := bpi.NewChecker(sys)
	decide := func(rel, p, q string) bool {
		r, err := ch.Decide(context.Background(), bpi.Query{Rel: rel, P: bpi.MustParse(p), Q: bpi.MustParse(q)})
		if err != nil {
			log.Fatal(err)
		}
		return r.Related
	}
	fmt.Printf("\na? ~ b?  -> %v (the noisy law)\n", decide(bpi.RelLabelled, "a?", "b?"))
	fmt.Printf("a! ~ b!  -> %v\n", decide(bpi.RelLabelled, "a!", "b!"))

	// 3. Restriction internalises private broadcasts (Remark 1): νa(āb) has
	// a silent step where āb has a visible one — barbed bisimilarity is not
	// preserved by restriction in this calculus.
	fmt.Printf("\nāb ~b āb.c̄d       -> %v\n", decide(bpi.RelBarbed, "a!(b)", "a!(b).c!(d)"))
	fmt.Printf("νa āb ~b νa āb.c̄d -> %v (Remark 1)\n", decide(bpi.RelBarbed, "nu a.a!(b)", "nu a.a!(b).c!(d)"))

	// 4. The Section 5 axiomatisation decides strong congruence on finite
	// terms: prove an instance of the noisy axiom (H).
	pr := bpi.NewProver(sys)
	lhs := bpi.MustParse("a!.c!")
	rhs := bpi.MustParse("a!.(c! + a?(x).c!)")
	ok, err := pr.Decide(lhs, rhs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nA ⊢ %s = %s  -> %v (axiom H)\n", bpi.Format(lhs), bpi.Format(rhs), ok)

	// 5. Execute a system: a tiny two-cell token ring.
	prog, err := bpi.ParseProgram(`
let Node(in, out, tok) = in?(t).out!(t).Node(in, out, tok)
Node(a, b, t) | Node(b, a, t) | a!(t0)
`)
	if err != nil {
		log.Fatal(err)
	}
	rsys := bpi.NewSystem(prog.Env)
	res, err := bpi.Run(rsys, prog.Main, bpi.RunOptions{MaxSteps: 6, KeepTrace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntoken ring trace:")
	for _, ev := range res.Trace {
		fmt.Println("  ", ev)
	}
}
