// Package pagecache simulates the OS page cache that DNN frameworks rely on
// for caching raw training data (§3.3.1). It is item-granular (a data item is
// fetched and evicted as a unit) and byte-budgeted.
//
// Three replacement policies are provided:
//
//   - LRU: classic least-recently-used; pathological for cyclic scans.
//   - TwoList: an approximation of Linux's active/inactive list design
//     (promotion on second touch while resident in the inactive list,
//     demotion when the active list exceeds its share). This is the default
//     "Linux" model used in experiments; under per-epoch permutation access
//     it thrashes — delivering well below capacity-ratio hits — which is the
//     paper's key finding (Fig 3, Table 6).
//   - Random: random replacement, included for ablations.
//
// Storage layout: one []entry indexed by ItemID (IDs are dense small
// integers) holds the two 32-bit links that thread each item into an
// intrusive doubly-linked recency list, with its residency state in the top
// two bits of the next link: 8 bytes per item, so a lookup is one
// bounds-checked load and there is no separate index or free list. An
// item's size is not stored: the cache is built with the dataset's
// deterministic size model and recomputes it whenever it books bytes, so
// the caller cannot insert an item at a size that disagrees with the one
// its hits and evictions later book. Links store an ID plus one, so an
// all-zero slot is absent and unlinked, and IDs at or above 2^30-1 (which
// would reach the state bits) are never cached; the largest catalog
// dataset has 14.2M items. The slot array grows on demand; NewSized
// pre-sizes it for a known ID range. Steady-state Lookup and
// Insert-with-eviction therefore allocate nothing — no map operations, no
// container/list element boxes, no per-entry heap objects. Eviction order,
// rng consumption, and every statistic are identical to the original
// map+container/list implementation, which stored each size at insert
// (pinned by TestSlabMatchesReference).
//
// A Cache is NOT safe for concurrent use; each simulated job owns its
// caches and drives them from the one simulation goroutine.
package pagecache

import (
	"math/rand"
	"sync"

	"datastall/internal/dataset"
)

// Policy selects a replacement policy.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	TwoList
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TwoList:
		return "twolist"
	case Random:
		return "random"
	}
	return "unknown"
}

// Residency states of a slot. The zero value is absent, so slots added by
// growth start empty.
const (
	absent uint8 = iota
	inactive
	active
)

// link names a slot in a recency list: its item ID plus one, so the zero
// link is nil. It fits the low 30 bits of entry.next, whose top two bits
// hold the slot's residency state.
type link uint32

const (
	stateShift = 30
	linkMask   = link(1)<<stateShift - 1
	// maxItems bounds the IDs a cache accepts: the largest, maxItems-1,
	// is stored as the link maxItems == linkMask.
	maxItems = int(linkMask)
)

// linkOf returns the link naming the slot of id.
func linkOf(id dataset.ItemID) link { return link(id) + 1 }

// id returns the ItemID whose slot l names.
func (l link) id() dataset.ItemID { return dataset.ItemID(l - 1) }

// entry is the 8-byte slot of the item whose ItemID is its index. While the
// item is resident, prev and next thread it into the inactive or active
// list; Random-policy entries are resident but unlinked. An all-zero slot is
// absent and unlinked.
type entry struct {
	prev link
	next link // state<<stateShift | next link
}

func (en *entry) state() uint8      { return uint8(en.next >> stateShift) }
func (en *entry) setState(st uint8) { en.next = en.next&linkMask | link(st)<<stateShift }
func (en *entry) nextLink() link    { return en.next & linkMask }
func (en *entry) setNext(l link)    { en.next = en.next&^linkMask | l }

// clist is an intrusive doubly-linked list over slots.
// front = most recent.
type clist struct {
	head, tail link
	n          int
}

// Cache is a simulated page cache.
type Cache struct {
	policy   Policy
	capBytes float64
	// sizes gives every cached item's size; it is a value, not a func,
	// so Bytes inlines into the booking paths.
	sizes dataset.Sizes

	slots []entry // indexed by ItemID; grown on demand

	inactive clist
	active   clist

	usedBytes   float64
	activeBytes float64
	// activeRatio is the maximum fraction of capacity the active list may
	// occupy before demotion (TwoList only).
	activeRatio float64

	// refaultProb is the probability a freshly inserted item is activated
	// directly onto the active list (TwoList only). It models Linux's
	// workingset refault detection plus readahead batch activation: under
	// heavy thrashing, a slice of the incoming stream gets protected,
	// which is why the authors measure nonzero retention even for
	// sequential scans (Table 3, Table 6).
	refaultProb float64

	rng *rand.Rand
	// randKeys lists resident items for O(1) random eviction (Random
	// only).
	randKeys []dataset.ItemID

	hits, misses int64
	evictions    int64
	count        int
}

// New returns a cache with the given policy and byte capacity, caching
// items whose sizes sizes gives.
func New(policy Policy, sizes dataset.Sizes, capBytes float64, seed int64) *Cache {
	return &Cache{
		policy:      policy,
		capBytes:    capBytes,
		sizes:       sizes,
		activeRatio: 0.62,
		refaultProb: 0.30,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// NewSized is New with the slot array pre-sized for numItems dense IDs, so
// inserts of IDs below numItems never reallocate. The array is a released
// cache's when the pooled one holds numItems to twice as many slots; one
// any larger is dropped, so small runs do not keep a large run's alive.
func NewSized(policy Policy, sizes dataset.Sizes, capBytes float64, seed int64, numItems int) *Cache {
	c := New(policy, sizes, capBytes, seed)
	if numItems > 0 {
		if p, _ := slotPool.Get().(*[]entry); p != nil && cap(*p) >= numItems && cap(*p) <= 2*numItems {
			c.slots = (*p)[:numItems]
			clear(c.slots)
		} else {
			c.slots = make([]entry, numItems)
		}
	}
	return c
}

// slotPool holds the slot arrays of released caches. A sweep simulates
// many short runs over one dataset, each of which would otherwise
// allocate, and leave the GC to free, an array with a slot per item.
var slotPool sync.Pool // of *[]entry

// Release hands the cache's slot array to a later NewSized. The cache
// must not be used after.
func (c *Cache) Release() {
	if cap(c.slots) > 0 {
		s := c.slots[:0]
		slotPool.Put(&s)
	}
	c.slots = nil
}

// SetActiveRatio overrides the TwoList active-list share (for ablations).
func (c *Cache) SetActiveRatio(r float64) { c.activeRatio = r }

// SetRefaultProb sets the TwoList refault/readahead activation probability
// (0 disables it, giving the classic strict two-list behaviour).
func (c *Cache) SetRefaultProb(p float64) { c.refaultProb = p }

// CapBytes returns the configured capacity.
func (c *Cache) CapBytes() float64 { return c.capBytes }

// UsedBytes returns the bytes currently cached.
func (c *Cache) UsedBytes() float64 { return c.usedBytes }

// Hits returns the number of lookup hits so far.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of lookup misses so far.
func (c *Cache) Misses() int64 { return c.misses }

// Evictions returns the number of items evicted so far.
func (c *Cache) Evictions() int64 { return c.evictions }

// ResetStats clears hit/miss/eviction counters (e.g. after warmup epoch).
func (c *Cache) ResetStats() { c.hits, c.misses, c.evictions = 0, 0, 0 }

// Len returns the number of cached items.
func (c *Cache) Len() int { return c.count }

// Contains reports whether id is resident without updating recency.
func (c *Cache) Contains(id dataset.ItemID) bool {
	i := int(id)
	return uint(i) < uint(len(c.slots)) && c.slots[i].state() != absent
}

// slot returns the slot l names.
func (c *Cache) slot(l link) *entry { return &c.slots[l-1] }

// pushFront links slot e at the front of l.
func (c *Cache) pushFront(l *clist, e link) {
	en := c.slot(e)
	en.prev = 0
	en.setNext(l.head)
	if l.head != 0 {
		c.slot(l.head).prev = e
	} else {
		l.tail = e
	}
	l.head = e
	l.n++
}

// unlink removes slot e from l.
func (c *Cache) unlink(l *clist, e link) {
	en := c.slot(e)
	next := en.nextLink()
	if en.prev != 0 {
		c.slot(en.prev).setNext(next)
	} else {
		l.head = next
	}
	if next != 0 {
		c.slot(next).prev = en.prev
	} else {
		l.tail = en.prev
	}
	en.prev = 0
	en.setNext(0)
	l.n--
}

// moveToFront makes e the most recent entry of l.
func (c *Cache) moveToFront(l *clist, e link) {
	if l.head == e {
		return
	}
	c.unlink(l, e)
	c.pushFront(l, e)
}

// Lookup reports whether id is cached, updating recency/promotion state and
// hit/miss counters.
func (c *Cache) Lookup(id dataset.ItemID) bool {
	if !c.Contains(id) {
		c.misses++
		return false
	}
	c.hits++
	e := linkOf(id)
	en := c.slot(e)
	switch c.policy {
	case LRU:
		c.moveToFront(&c.inactive, e)
	case TwoList:
		if en.state() == active {
			c.moveToFront(&c.active, e)
		} else {
			// Second touch while resident on the inactive list:
			// promote to the active list (Linux mark_page_accessed).
			c.unlink(&c.inactive, e)
			c.pushFront(&c.active, e)
			en.setState(active)
			c.activeBytes += c.sizes.Bytes(id)
			c.rebalance()
		}
	case Random:
		// No recency state.
	}
	return true
}

// Insert caches id at the size the cache's size model gives it (typically
// after a miss fetched it from storage), evicting as needed to respect
// capacity. Items larger than the cache are not cached, nor are IDs outside
// [0, 2^30-1), which a slot cannot link.
func (c *Cache) Insert(id dataset.ItemID) {
	if id < 0 || int(id) >= maxItems || c.Contains(id) {
		return
	}
	bytes := c.sizes.Bytes(id)
	if bytes > c.capBytes {
		return
	}
	for c.usedBytes+bytes > c.capBytes {
		if !c.evictOne() {
			return
		}
	}
	if n := int(id) + 1; n > len(c.slots) {
		c.slots = append(c.slots, make([]entry, n-len(c.slots))...)
	}
	e := linkOf(id)
	en := c.slot(e)
	en.setState(inactive)
	switch c.policy {
	case Random:
		c.randKeys = append(c.randKeys, id)
	case TwoList:
		if c.refaultProb > 0 && c.rng.Float64() < c.refaultProb {
			c.pushFront(&c.active, e)
			en.setState(active)
			c.activeBytes += bytes
			c.count++
			c.usedBytes += bytes
			c.rebalance()
			return
		}
		c.pushFront(&c.inactive, e)
	default:
		c.pushFront(&c.inactive, e)
	}
	c.count++
	c.usedBytes += bytes
}

// rebalance demotes active-list tails while the active list exceeds its
// share of capacity (TwoList).
func (c *Cache) rebalance() {
	for c.activeBytes > c.activeRatio*c.capBytes && c.active.n > 0 {
		c.demote()
	}
}

// demote moves the active tail to the front of the inactive list.
func (c *Cache) demote() {
	e := c.active.tail
	c.unlink(&c.active, e)
	c.pushFront(&c.inactive, e)
	c.slot(e).setState(inactive)
	c.activeBytes -= c.sizes.Bytes(e.id())
}

// release evicts resident slot e and books the eviction.
func (c *Cache) release(e link) {
	c.slot(e).setState(absent)
	c.usedBytes -= c.sizes.Bytes(e.id())
	c.count--
	c.evictions++
}

// evictOne removes one item according to the policy; returns false if empty.
func (c *Cache) evictOne() bool {
	switch c.policy {
	case Random:
		if len(c.randKeys) == 0 {
			return false
		}
		i := c.rng.Intn(len(c.randKeys))
		id := c.randKeys[i]
		last := len(c.randKeys) - 1
		c.randKeys[i] = c.randKeys[last]
		c.randKeys = c.randKeys[:last]
		c.release(linkOf(id))
		return true
	case TwoList:
		// Evict from the inactive tail; refill inactive from active if
		// it drained (Linux shrinks the active list under pressure).
		if c.inactive.n == 0 && c.active.tail != 0 {
			c.demote()
		}
		fallthrough
	default:
		e := c.inactive.tail
		if e == 0 {
			e = c.active.tail
			if e == 0 {
				return false
			}
			c.unlink(&c.active, e)
			c.activeBytes -= c.sizes.Bytes(e.id())
			c.release(e)
			return true
		}
		c.unlink(&c.inactive, e)
		c.release(e)
		return true
	}
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
