package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// cacheEntry is one cached rewrite outcome: the output binary plus the
// pre-serialised stats JSON served in the response header.
type cacheEntry struct {
	out       []byte
	statsJSON []byte
}

// size is the entry's byte charge against the cache budget.
func (e *cacheEntry) size() int64 { return int64(len(e.out) + len(e.statsJSON)) }

// planEntry is one cached patch plan in its serialized form
// (PatchPlan.Encode) — the second, cheaper cache tier: a plan is a few
// dozen bytes per patch site where the result entry is the whole output
// binary, so the plan tier retains far more history per byte and
// rematerializes evicted results without redoing any tactic search.
// data is immutable once stored: plans decoded from it alias it.
type planEntry struct {
	data []byte
}

func (e *planEntry) size() int64 { return int64(len(e.data)) }

// cacheKey derives the content address of a rewrite: the SHA-256 of
// the input binary joined with the SHA-256 of the canonicalised
// request spec. Identical bytes + identical effective config → same
// key, regardless of parameter spelling or ordering. Both cache tiers
// share this key space.
func cacheKey(body []byte, spec *Spec) string {
	hb := sha256.Sum256(body)
	hs := sha256.Sum256([]byte(spec.Canonical()))
	return hex.EncodeToString(hb[:]) + "-" + hex.EncodeToString(hs[:])
}

// sized is the charge contract cache entries implement.
type sized interface{ size() int64 }

// lruItem pairs a stored value with its key for eviction bookkeeping.
type lruItem[E sized] struct {
	key string
	val E
}

// lruCache is a byte-budgeted LRU keyed by content address. Eviction
// is by total byte charge, not entry count: one huge entry can evict
// many small ones, never the reverse surprise. It is generic over the
// entry type so the result tier (output binaries) and the plan tier
// (encoded plans) share one implementation with separate budgets.
type lruCache[E sized] struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	ll        *list.List // front = most recently used; values are *lruItem[E]
	items     map[string]*list.Element
	evictions uint64
}

func newLRUCache[E sized](budget int64) *lruCache[E] {
	return &lruCache[E]{budget: budget, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry for key, refreshing its recency.
func (c *lruCache[E]) get(key string) (E, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero E
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[E]).val, true
}

// put inserts (or refreshes) an entry, evicting least-recently-used
// entries until the byte budget holds. Entries larger than the whole
// budget are not cached, and a zero or negative budget disables the
// cache entirely.
func (c *lruCache[E]) put(key string, e E) {
	if c.budget <= 0 || e.size() > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem[E])
		c.used += e.size() - it.val.size()
		it.val = e
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruItem[E]{key: key, val: e})
		c.used += e.size()
	}
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*lruItem[E])
		c.ll.Remove(back)
		delete(c.items, victim.key)
		c.used -= victim.val.size()
		c.evictions++
	}
}

// stats reports entry count, used bytes and lifetime evictions.
func (c *lruCache[E]) stats() (entries int, bytes int64, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.used, c.evictions
}
