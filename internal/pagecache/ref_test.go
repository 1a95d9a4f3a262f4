package pagecache

// refCache is the original page-cache implementation (map of *entry +
// container/list recency lists, each entry storing the size it was inserted
// with), frozen as the behavioural reference model: TestSlabMatchesReference
// replays identical op sequences through it and the ID-indexed Cache, which
// derives sizes from its size model instead, and requires identical hits,
// misses, evictions, bytes, residency and rng consumption at every step. It
// exists only in tests.

import (
	"container/list"
	"math/rand"

	"datastall/internal/dataset"
)

type refEntry struct {
	id     dataset.ItemID
	bytes  float64
	active bool
	elem   *list.Element
}

type refCache struct {
	policy   Policy
	capBytes float64

	items    map[dataset.ItemID]*refEntry
	inactive *list.List
	active   *list.List

	usedBytes   float64
	activeBytes float64
	activeRatio float64
	refaultProb float64

	rng      *rand.Rand
	randKeys []dataset.ItemID
	randPos  map[dataset.ItemID]int

	hits, misses int64
	evictions    int64
}

func newRef(policy Policy, capBytes float64, seed int64) *refCache {
	return &refCache{
		policy:      policy,
		capBytes:    capBytes,
		items:       make(map[dataset.ItemID]*refEntry),
		inactive:    list.New(),
		active:      list.New(),
		activeRatio: 0.62,
		refaultProb: 0.30,
		rng:         rand.New(rand.NewSource(seed)),
		randPos:     make(map[dataset.ItemID]int),
	}
}

func (c *refCache) Contains(id dataset.ItemID) bool {
	_, ok := c.items[id]
	return ok
}

func (c *refCache) Lookup(id dataset.ItemID) bool {
	e, ok := c.items[id]
	if !ok {
		c.misses++
		return false
	}
	c.hits++
	switch c.policy {
	case LRU:
		c.inactive.MoveToFront(e.elem)
	case TwoList:
		if e.active {
			c.active.MoveToFront(e.elem)
		} else {
			c.inactive.Remove(e.elem)
			e.elem = c.active.PushFront(e)
			e.active = true
			c.activeBytes += e.bytes
			c.rebalance()
		}
	case Random:
	}
	return true
}

func (c *refCache) Insert(id dataset.ItemID, bytes float64) {
	if _, ok := c.items[id]; ok {
		return
	}
	if bytes > c.capBytes {
		return
	}
	for c.usedBytes+bytes > c.capBytes {
		if !c.evictOne() {
			return
		}
	}
	e := &refEntry{id: id, bytes: bytes}
	switch c.policy {
	case Random:
		c.randPos[id] = len(c.randKeys)
		c.randKeys = append(c.randKeys, id)
	case TwoList:
		if c.refaultProb > 0 && c.rng.Float64() < c.refaultProb {
			e.elem = c.active.PushFront(e)
			e.active = true
			c.activeBytes += e.bytes
			c.items[id] = e
			c.usedBytes += bytes
			c.rebalance()
			return
		}
		e.elem = c.inactive.PushFront(e)
	default:
		e.elem = c.inactive.PushFront(e)
	}
	c.items[id] = e
	c.usedBytes += bytes
}

func (c *refCache) rebalance() {
	for c.activeBytes > c.activeRatio*c.capBytes && c.active.Len() > 0 {
		el := c.active.Back()
		e := el.Value.(*refEntry)
		c.active.Remove(el)
		e.elem = c.inactive.PushFront(e)
		e.active = false
		c.activeBytes -= e.bytes
	}
}

func (c *refCache) evictOne() bool {
	switch c.policy {
	case Random:
		if len(c.randKeys) == 0 {
			return false
		}
		i := c.rng.Intn(len(c.randKeys))
		id := c.randKeys[i]
		last := len(c.randKeys) - 1
		c.randKeys[i] = c.randKeys[last]
		c.randPos[c.randKeys[i]] = i
		c.randKeys = c.randKeys[:last]
		delete(c.randPos, id)
		e := c.items[id]
		delete(c.items, id)
		c.usedBytes -= e.bytes
		c.evictions++
		return true
	case TwoList:
		if c.inactive.Len() == 0 {
			c.rebalanceForce()
		}
		fallthrough
	default:
		el := c.inactive.Back()
		if el == nil {
			el = c.active.Back()
			if el == nil {
				return false
			}
			e := el.Value.(*refEntry)
			c.active.Remove(el)
			c.activeBytes -= e.bytes
			delete(c.items, e.id)
			c.usedBytes -= e.bytes
			c.evictions++
			return true
		}
		e := el.Value.(*refEntry)
		c.inactive.Remove(el)
		delete(c.items, e.id)
		c.usedBytes -= e.bytes
		c.evictions++
		return true
	}
}

func (c *refCache) rebalanceForce() {
	el := c.active.Back()
	if el == nil {
		return
	}
	e := el.Value.(*refEntry)
	c.active.Remove(el)
	e.elem = c.inactive.PushFront(e)
	e.active = false
	c.activeBytes -= e.bytes
}
