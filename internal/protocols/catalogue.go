package protocols

// Catalogue returns the curated scenario library: every algorithm at three
// (or more) sizes, healthy plus the fault variants whose failure is
// observable in the scenario's conformance relation. This is the corpus the
// protocols/conform oracle law samples, the package tests decide on every
// engine, and `bpi protocols` lists.
//
// Fault placement is deliberate: multi-hop faults hit a MIDDLE station (a
// fault on the last hop of a line leaves nothing downstream to starve, and a
// lossy last hop is strongly step-invisible — see
// TestLossyStepInvisibility). Lossy faults in the single-hop algorithms
// (election, star gossip) are stated against weak BARBED bisimilarity under
// the ν(trigger) noisy wrapper — the weakest relation in the suite that
// observes the drop — and the lossy election runs at n=2, where the dropped
// follow is the only barb on its channel (at n ≥ 3 another follower masks
// it).
func Catalogue() []Scenario {
	var out []Scenario
	add := func(s Scenario) { out = append(out, s) }

	// Gossip: three topologies from the internal/stress families.
	for _, n := range []int{2, 3, 4} {
		add(GossipLine(n, Fault{}))
	}
	add(GossipLine(3, Fault{FaultCrashed, 2}))
	add(GossipLine(3, Fault{FaultDeaf, 2}))
	add(GossipLine(3, Fault{FaultLossy, 2}))
	for _, n := range []int{2, 3, 4} {
		add(GossipStar(n, Fault{}))
	}
	add(GossipStar(3, Fault{FaultCrashed, 1}))
	add(GossipStar(3, Fault{FaultDeaf, 2}))
	add(GossipStar(3, Fault{FaultLossy, 2})) // weak barbed + noisy wrapper
	add(GossipTree(2, 1, Fault{}))
	add(GossipTree(2, 2, Fault{}))
	add(GossipTree(3, 2, Fault{}))
	add(GossipTree(2, 2, Fault{FaultCrashed, 1})) // node 1 has children
	add(GossipTree(2, 2, Fault{FaultDeaf, 1}))
	add(GossipTree(2, 2, Fault{FaultLossy, 1}))

	// Leader election.
	for _, n := range []int{2, 3, 4} {
		add(Election(n, Fault{}))
	}
	add(Election(3, Fault{FaultCrashed, 2}))
	add(Election(3, Fault{FaultDeaf, 2}))
	add(Election(2, Fault{FaultLossy, 2})) // weak barbed + noisy wrapper; n=2 (see above)

	// Broadcast-via-multicast emulation (weak throughout).
	for _, n := range []int{2, 3, 4} {
		add(Multicast(n, Fault{}))
	}
	add(Multicast(3, Fault{FaultCrashed, 2}))
	add(Multicast(3, Fault{FaultDeaf, 2}))
	add(Multicast(3, Fault{FaultLossy, 2}))

	// BBC-style broadcast + aggregation.
	for _, n := range []int{2, 3, 4} {
		add(BBC(n, Fault{}))
	}
	add(BBC(3, Fault{FaultCrashed, 2}))
	add(BBC(3, Fault{FaultDeaf, 2}))
	add(BBC(3, Fault{FaultLossy, 2}))

	// Token ring (the fifth, mini scenario — testdata/token_ring.bpi).
	for _, n := range []int{2, 3, 4} {
		add(TokenRing(n, Fault{}))
	}
	add(TokenRing(3, Fault{FaultCrashed, 2}))
	add(TokenRing(3, Fault{FaultDeaf, 2}))
	add(TokenRing(3, Fault{FaultLossy, 2}))

	return out
}

// ByName returns the catalogue scenario with the given Name.
func ByName(name string) (Scenario, bool) {
	for _, s := range Catalogue() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Ladder returns the bench scaling instances for `bpibench -protocols`:
// healthy scenarios whose pair spaces grow exponentially with n, smallest
// first per algorithm. Gossip stars and elections double their state count
// per added node (2^n subsets), multicast per added member; the line-shaped
// algorithms are omitted — their state spaces are linear and decided in
// microseconds at any interesting size. Top rungs are sized to stay in the
// low seconds sequentially (gossip/star-12 ≈ 139k pairs, election-7 ≈ 168k,
// multicast-8 ≈ 131k weak pairs) so the whole ladder finishes in well
// under a minute; one size up costs 5-10x (election-8 is ~824k pairs).
func Ladder() []Scenario {
	return []Scenario{
		GossipStar(8, Fault{}),
		GossipStar(10, Fault{}),
		GossipStar(12, Fault{}),
		Election(5, Fault{}),
		Election(6, Fault{}),
		Election(7, Fault{}),
		Multicast(6, Fault{}),
		Multicast(7, Fault{}),
		Multicast(8, Fault{}),
	}
}
