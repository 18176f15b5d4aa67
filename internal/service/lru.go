package service

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// verdictCache is a bounded LRU of equivalence verdicts keyed on the
// ledger's pair key plus the budgets. That is sound because every verdict is
// a pure function of the keyed terms, the relation and the budgets (the ~c
// key keeps the terms unsimplified, see ledger.QueryKey), and all the
// paper's relations are symmetric, so the key orders the two sides
// lexicographically and one entry serves both orientations.
//
// Hits and misses are counted both in aggregate and per (relation, mode)
// class, so warm-start effectiveness is attributable per workload on
// /metrics (bpid_verdict_cache_rel_{hits,misses}_total{rel,mode}).
type verdictCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	relHits   map[relMode]uint64 // guarded by mu
	relMisses map[relMode]uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

// relMode is the per-workload counter class: the relation crossed with
// strong/weak.
type relMode struct {
	rel  string
	mode string // "strong" | "weak"
}

func newRelMode(rel string, weak bool) relMode {
	if weak {
		return relMode{rel, "weak"}
	}
	return relMode{rel, "strong"}
}

type cacheEntry struct {
	key  string
	resp EquivResponse
}

func newVerdictCache(max int) *verdictCache {
	if max <= 0 {
		max = 4096
	}
	return &verdictCache{max: max, order: list.New(), entries: make(map[string]*list.Element),
		relHits: map[relMode]uint64{}, relMisses: map[relMode]uint64{}}
}

// budgetKey builds the cache key: the ledger's pair key (ledger.QueryKey)
// with the request budgets appended. Sharing the ledger's key is what lets a
// cache miss find exactly this pair and these budgets among the persisted
// records (ledger.Lookup).
func budgetKey(pairKey string, maxPairs, maxClosure, maxSubs int) string {
	return fmt.Sprintf("%s|%d|%d|%d", pairKey, maxPairs, maxClosure, maxSubs)
}

// get returns the cached verdict and bumps its recency, counting the
// hit/miss against the (relation, mode) class.
func (c *verdictCache) get(key, rel string, weak bool) (EquivResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		c.relMisses[newRelMode(rel, weak)]++
		return EquivResponse{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	c.relHits[newRelMode(rel, weak)]++
	return el.Value.(*cacheEntry).resp, true
}

// put stores a conclusive verdict, evicting the least recently used entry
// when full.
func (c *verdictCache) put(key string, resp EquivResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, resp: resp})
	if c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// relCounts snapshots the per-(relation, mode) hit/miss counters.
func (c *verdictCache) relCounts() (hits, misses map[relMode]uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hits = make(map[relMode]uint64, len(c.relHits))
	for k, v := range c.relHits {
		hits[k] = v
	}
	misses = make(map[relMode]uint64, len(c.relMisses))
	for k, v := range c.relMisses {
		misses[k] = v
	}
	return hits, misses
}

func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
