package protocols

import (
	"testing"

	"bpi/internal/actions"
	"bpi/internal/machine"
	"bpi/internal/names"
	"bpi/internal/semantics"
)

const (
	claim  names.Name = "claim"
	lead   names.Name = "lead"
	follow names.Name = "follow"
)

// Every maximal run elects exactly one leader, and everyone else follows it.
func TestElectionSafetyAndLiveness(t *testing.T) {
	sys := semantics.NewSystem(nil)
	for _, n := range []int{2, 3, 4} {
		system := Election(n, Fault{}).Impl
		// Liveness: a leader is inevitable.
		ok, witness, err := machine.AlwaysReachesBarb(sys, system, lead, 60000)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !ok {
			t.Fatalf("n=%d: election can stall (witness %v)", n, witness)
		}
		// Safety on scheduled runs: exactly one lead, n-1 follows, and the
		// followers acknowledge the actual winner.
		rs, err := machine.RunMany(sys, system, 16, int64(n), machine.Options{
			MaxSteps: 50, KeepTrace: true,
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for ri, r := range rs {
			if !r.Quiescent {
				t.Fatalf("n=%d run %d did not quiesce", n, ri)
			}
			var leader names.Name
			leads, follows := 0, 0
			for _, ev := range r.Trace {
				switch {
				case ev.Act.Kind == actions.Out && ev.Act.Subj == lead:
					leads++
					leader = ev.Act.Objs[0]
				case ev.Act.Kind == actions.Out && ev.Act.Subj == follow:
					follows++
				}
			}
			if leads != 1 {
				t.Fatalf("n=%d run %d: %d leaders", n, ri, leads)
			}
			if follows != n-1 {
				t.Fatalf("n=%d run %d: %d followers, want %d", n, ri, follows, n-1)
			}
			// All follow announcements name the same winner. A follower may
			// announce before the leader's own lead! fires, so the check is
			// against the whole trace.
			var winner names.Name
			for _, ev := range r.Trace {
				if ev.Act.Kind == actions.Out && ev.Act.Subj == follow {
					if winner == "" {
						winner = ev.Act.Objs[1]
					} else if ev.Act.Objs[1] != winner {
						t.Fatalf("n=%d run %d: followers disagree on the winner", n, ri)
					}
				}
			}
			if winner != "" && leader != winner {
				t.Fatalf("n=%d run %d: leader %s but followers follow %s", n, ri, leader, winner)
			}
		}
	}
}

// Exhaustively: from no reachable state can a second claim fire after the
// first (the claim broadcast consumes every candidate's claiming branch).
func TestElectionClaimIsExclusive(t *testing.T) {
	sys := semantics.NewSystem(nil)
	system := Election(3, Fault{}).Impl
	ts, err := sys.Steps(system)
	if err != nil {
		t.Fatal(err)
	}
	claims := 0
	for _, tr := range ts {
		if tr.Act.IsOutput() && tr.Act.Subj == claim {
			claims++
			got, err := machine.CanReachBarb(sys, tr.Target, claim, 60000)
			if err != nil {
				t.Fatal(err)
			}
			if got {
				t.Fatalf("second claim reachable after %s", tr.Act)
			}
		}
	}
	if claims != 3 {
		t.Fatalf("expected 3 first-claim transitions, got %d", claims)
	}
}
