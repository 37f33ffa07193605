package engine

import (
	"container/list"
	"sync"

	"bytecard/internal/obs"
)

// DefaultPlanCacheBytes bounds the plan cache when no explicit budget is
// configured: a few thousand templates at typical decision sizes —
// warehouse workloads repeat a small set of templates with varying
// constants, so this covers the hot set with headroom.
const DefaultPlanCacheBytes = 4 << 20

// planCacheEntryOverhead approximates the fixed per-entry footprint (map
// cell, LRU element, entry and decision headers) for the byte gauge.
const planCacheEntryOverhead = 160

// scanDecision is one table's cached materialization decision.
type scanDecision struct {
	strategy string
	colOrder []string
	estRows  float64
}

// planDecisions is one query template's complete set of optimizer
// decisions — everything Plan computes that does not reference the
// analyzed Query's own structures. Applying them to a fresh Query of the
// same template rebuilds the Plan without a single estimator call; the
// fresh Query carries the new constants, so execution filters with the
// caller's actual values while strategy, column order, join order, and
// presizing replay the template's decisions (estimates included — reusing
// a sibling's estimates is the documented template-cache tradeoff).
type planDecisions struct {
	scans        []scanDecision
	joinOrder    []int
	joinEstRows  []float64
	estFinalRows float64
	aggCapacity  int
	// tables is the deduped physical-table list the decisions were
	// estimated against, for table-scoped invalidation.
	tables []string
	size   int64
}

// decisionsOf extracts the cacheable decisions from a freshly built plan.
func decisionsOf(p *Plan) *planDecisions {
	d := &planDecisions{
		scans:        make([]scanDecision, len(p.Scans)),
		joinOrder:    append([]int(nil), p.JoinOrder...),
		joinEstRows:  append([]float64(nil), p.JoinEstRows...),
		estFinalRows: p.EstFinalRows,
		aggCapacity:  p.AggCapacity,
	}
	size := int64(planCacheEntryOverhead)
	for i, sp := range p.Scans {
		d.scans[i] = scanDecision{
			strategy: sp.Strategy,
			colOrder: append([]string(nil), sp.ColOrder...),
			estRows:  sp.EstRows,
		}
		size += int64(len(sp.Strategy)) + 24
		for _, c := range sp.ColOrder {
			size += int64(len(c)) + 16
		}
	}
	seen := map[string]bool{}
	for _, t := range p.Query.Tables {
		if !seen[t.Name] {
			seen[t.Name] = true
			d.tables = append(d.tables, t.Name)
			size += int64(len(t.Name)) + 16
		}
	}
	size += int64(8*len(d.joinOrder) + 8*len(d.joinEstRows))
	d.size = size
	return d
}

// apply rebuilds a Plan for a fresh Query of the same template. Slices
// are copied so no two plans — and never the cache — share mutable
// backing arrays.
func (d *planDecisions) apply(q *Query) *Plan {
	p := &Plan{
		Query:        q,
		JoinOrder:    append([]int(nil), d.joinOrder...),
		JoinEstRows:  append([]float64(nil), d.joinEstRows...),
		EstFinalRows: d.estFinalRows,
		AggCapacity:  d.aggCapacity,
	}
	for i, sd := range d.scans {
		p.Scans = append(p.Scans, &ScanPlan{
			TableIdx: i,
			Strategy: sd.strategy,
			ColOrder: append([]string(nil), sd.colOrder...),
			EstRows:  sd.estRows,
		})
	}
	return p
}

// PlanCache memoizes optimizer decisions by normalized query template
// (sqlparse.Normalize — constants stripped), bounded by resident bytes
// with LRU eviction. A hit skips analysis-independent planning entirely:
// every estimator call, the join-order DP, and aggregation presizing.
// Entries hold decisions, not Plans, and are re-applied to each fresh
// Query, so cached templates execute with the caller's actual constants.
//
// The cache implements core's DerivedCache contract: the inference
// registry invalidates it on model load (table-scoped via the per-entry
// physical-table list) and flushes it on enable/disable, so no plan ever
// replays decisions estimated by a replaced model. Safe for concurrent
// use.
type PlanCache struct {
	mu      sync.Mutex
	limit   int64
	entries map[string]*list.Element
	lru     *list.List // of *planCacheEntry; front = most recent
	bytes   int64
	cm      obs.CacheMetrics
}

type planCacheEntry struct {
	key string
	d   *planDecisions
}

// NewPlanCache creates a plan cache bounded to limit resident bytes
// (DefaultPlanCacheBytes when limit <= 0).
func NewPlanCache(limit int64) *PlanCache {
	if limit <= 0 {
		limit = DefaultPlanCacheBytes
	}
	return &PlanCache{
		limit:   limit,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// Get returns the cached decisions for a template key and marks the entry
// recently used.
func (c *PlanCache) Get(key string) (*planDecisions, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.entries[key]
	if !ok {
		c.cm.Misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(elem)
	c.cm.Hits.Add(1)
	return elem.Value.(*planCacheEntry).d, true
}

// Put publishes one template's decisions, evicting from the cold end past
// the byte budget. Put is the cache's only publication path — entries
// enter carrying their invalidation table list, which is what keeps every
// resident plan reachable by InvalidateTables (enforced by the cacheput
// lint check).
func (c *PlanCache) Put(key string, d *planDecisions) {
	size := d.size + int64(len(key))
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.limit {
		return // a single oversized template must not wipe the cache
	}
	if elem, ok := c.entries[key]; ok {
		prev := elem.Value.(*planCacheEntry)
		c.bytes += size - (prev.d.size + int64(len(key)))
		c.cm.Bytes.Add(size - (prev.d.size + int64(len(key))))
		prev.d = d
		c.lru.MoveToFront(elem)
		return
	}
	c.entries[key] = c.lru.PushFront(&planCacheEntry{key: key, d: d})
	c.bytes += size
	c.cm.Bytes.Add(size)
	c.cm.Entries.Add(1)
	for c.bytes > c.limit && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
		c.cm.Evictions.Add(1)
	}
}

// removeLocked unlinks one entry and settles the gauges (c.mu held).
func (c *PlanCache) removeLocked(elem *list.Element) {
	e := elem.Value.(*planCacheEntry)
	delete(c.entries, e.key)
	c.lru.Remove(elem)
	size := e.d.size + int64(len(e.key))
	c.bytes -= size
	c.cm.Bytes.Add(-size)
	c.cm.Entries.Add(-1)
}

// Len returns the resident template count.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// InvalidateTables drops every template whose decisions were estimated
// against any of the named physical tables, returning how many were
// dropped. The scan is linear in resident templates — invalidation is
// model-churn-rate, not query-rate.
func (c *PlanCache) InvalidateTables(tables ...string) int {
	victim := map[string]bool{}
	for _, t := range tables {
		victim[t] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	var next *list.Element
	for elem := c.lru.Front(); elem != nil; elem = next {
		next = elem.Next()
		for _, t := range elem.Value.(*planCacheEntry).d.tables {
			if victim[t] {
				c.removeLocked(elem)
				n++
				break
			}
		}
	}
	c.cm.Invalidations.Add(int64(n))
	return n
}

// Flush drops every template, returning how many were resident.
func (c *PlanCache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	for elem := c.lru.Front(); elem != nil; elem = c.lru.Front() {
		c.removeLocked(elem)
	}
	c.cm.Invalidations.Add(int64(n))
	return n
}

// Stats returns the cache's uniform counter snapshot.
func (c *PlanCache) Stats() obs.CacheSnapshot {
	return c.cm.Snapshot()
}
