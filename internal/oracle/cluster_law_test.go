package oracle

import (
	"context"
	"errors"
	"testing"

	"bpi/internal/parser"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

// TestClusterLawHoldsOnWitnessPairs runs cluster/agree directly on pairs
// covering both verdicts and both modes: every node of a healthy 3-node
// cluster must agree with the direct sequential checker (empty detail, no
// engine error), routed and cache-hit paths included.
func TestClusterLawHoldsOnWitnessPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 3-node clusters; skipped in -short")
	}
	law := lawClusterAgree()
	env := NewEnv()
	pairs := [][2]string{
		{"a! | b!", "a!.b! + b!.a!"}, // related, strong and weak
		{"tau.a!", "a!"},             // related weak only
		{"a!", "b!"},                 // unrelated in both modes
		{"nu x.a!(x)", "nu y.a!(y)"}, // restriction + alpha-equivalence
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
			t.Errorf("(%s, %s): cluster/agree violated: %s", pq[0], pq[1], detail)
		}
	}
}

// TestClusterLawRegistered: the law is in the registry and selectable by
// name — the fourteenth law.
func TestClusterLawRegistered(t *testing.T) {
	laws, err := LawByName([]string{"cluster/agree"})
	if err != nil {
		t.Fatal(err)
	}
	if len(laws) != 1 || laws[0].Name != "cluster/agree" {
		t.Fatalf("LawByName(cluster/agree) = %v", laws)
	}
}

// TestClusterLawSurvivesCancellation: a cancelled context is an engine
// error, never a violation.
func TestClusterLawSurvivesCancellation(t *testing.T) {
	law := lawClusterAgree()
	env := NewEnv()
	p, err := parser.Parse("a! | b!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a!.b!")
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

// TestStartClusterWiresMembership: StartCluster hands every node the full
// URL list with itself as SelfURL, and a remote-routed verdict reports the
// serving peer while the forwarded request is counted on the owner.
func TestStartClusterWiresMembership(t *testing.T) {
	nodes, err := StartCluster(3, service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	if len(nodes) != 3 {
		t.Fatalf("StartCluster(3) returned %d nodes", len(nodes))
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.URL() == "" || seen[n.URL()] {
			t.Fatalf("node URL %q empty or duplicated", n.URL())
		}
		seen[n.URL()] = true
		cs := n.Service().Cluster()
		if cs.Peers != 3 {
			t.Fatalf("node %s sees %d peers, want 3", n.URL(), cs.Peers)
		}
	}
	// One pair through one node: whichever node owns it, all three report
	// agreeing verdicts, and the total forwarded count across the cluster
	// matches the number of non-owner queries.
	p, err := parser.Parse("a!.b!")
	if err != nil {
		t.Fatal(err)
	}
	req := service.EquivRequest{
		P: syntax.Print(p), Q: syntax.Print(p),
		Rel: service.RelLabelled, TimeoutMs: 30000,
	}
	ctx := context.Background()
	remote := 0
	for _, n := range nodes {
		resp, err := n.Equiv(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Related {
			t.Fatalf("node %s: p ~ p came back unrelated", n.URL())
		}
		if resp.Peer != "" {
			remote++
		}
	}
	forwarded := 0
	for _, n := range nodes {
		forwarded += int(n.Service().Cluster().ForwardedServed)
	}
	if remote != forwarded {
		t.Errorf("%d verdicts reported a peer but %d forwarded requests were served", remote, forwarded)
	}
}
