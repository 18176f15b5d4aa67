// Leader election by broadcast — a textbook use of the calculus's central
// property: a broadcast reaches every listener atomically, so the first
// claim resolves the whole election in one transition. Where point-to-point
// protocols (Chang–Roberts and friends) need O(n log n) messages and extra
// rounds for mutual exclusion, the broadcast ether provides it for free.
package main

import (
	"fmt"
	"log"

	"bpi/internal/actions"
	"bpi/internal/machine"
	"bpi/internal/names"
	"bpi/internal/protocols"
	"bpi/internal/semantics"
)

func main() {
	const (
		claim  names.Name = "claim"
		lead   names.Name = "lead"
		follow names.Name = "follow"
	)
	sys := semantics.NewSystem(nil)

	fmt.Println("Broadcast leader election")
	fmt.Println()
	for _, n := range []int{3, 5} {
		system := protocols.Election(n, protocols.Fault{}).Impl

		// Safety + liveness, exhaustively: a leader is inevitable.
		always, _, err := machine.AlwaysReachesBarb(sys, system, lead, 200000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("n=%d candidates: leader inevitable in every schedule: %v\n", n, always)

		// Show the distribution of winners over random schedules.
		wins := map[names.Name]int{}
		rs, err := machine.RunMany(sys, system, 40, 7, machine.Options{
			MaxSteps: 50, KeepTrace: true,
		}, 4)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rs {
			for _, ev := range r.Trace {
				if ev.Act.Kind == actions.Out && ev.Act.Subj == lead {
					wins[ev.Act.Objs[0]]++
				}
			}
		}
		fmt.Printf("  winners over 40 random schedules:")
		for i := 0; i < n; i++ {
			id := names.Name(fmt.Sprintf("cand%d", i))
			fmt.Printf(" %s=%d", id, wins[id])
		}
		fmt.Println()
	}

	// One annotated run.
	system := protocols.Election(3, protocols.Fault{}).Impl
	res, err := machine.Run(sys, system, machine.Options{
		MaxSteps: 20, KeepTrace: true, Scheduler: machine.NewRandomScheduler(11),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\none run, step by step:")
	for _, ev := range res.Trace {
		note := ""
		switch ev.Act.Subj {
		case claim:
			note = "   <- the race-winning broadcast: everyone else hears it"
		case lead:
			note = "    <- the claimant announces leadership"
		case follow:
			note = "  <- a hearer acknowledges the winner"
		}
		fmt.Printf("  %s%s\n", ev, note)
	}
}
