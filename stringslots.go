package ascylib

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
)

// strEntry is one (key, value) pair of a collision chain.
type strEntry[V any] struct {
	key string
	val V
}

// strChain is the immutable collision chain of one hash: every write
// publishes a fresh chain, so a reader that loaded one may keep reading it
// while writers move on. The first entry is inline, so the common one-key
// chain is a single allocation. In ordered mode the entries are sorted by
// key.
type strChain[V any] struct {
	head strEntry[V]
	rest []strEntry[V] // the other keys sharing the hash; never mutated
}

func (c *strChain[V]) len() int { return 1 + len(c.rest) }

func (c *strChain[V]) at(i int) *strEntry[V] {
	if i == 0 {
		return &c.head
	}
	return &c.rest[i-1]
}

// each yields the chain's entries in order and reports whether yield
// asked to continue.
func (c *strChain[V]) each(yield func(k string, v V) bool) bool {
	if !yield(c.head.key, c.head.val) {
		return false
	}
	for i := range c.rest {
		if !yield(c.rest[i].key, c.rest[i].val) {
			return false
		}
	}
	return true
}

// chainIndex returns the position of k in c, or -1.
func chainIndex[K ~string | ~[]byte, V any](c *strChain[V], k K) int {
	if eqKey(c.head.key, k) {
		return 0
	}
	for i := range c.rest {
		if eqKey(c.rest[i].key, k) {
			return i + 1
		}
	}
	return -1
}

// entries copies the chain into a fresh slice with room for spare more.
func (c *strChain[V]) entries(spare int) []strEntry[V] {
	es := make([]strEntry[V], 0, c.len()+spare)
	return append(append(es, c.head), c.rest...)
}

func chainOf[V any](es []strEntry[V]) *strChain[V] {
	c := &strChain[V]{head: es[0]}
	if len(es) > 1 {
		c.rest = es[1:]
	}
	return c
}

// chainPut returns c with k set to v: entry i gets the new value under its
// stored key string when i >= 0; otherwise k is added, at its
// lexicographic position when sorted. Overwriting the head — every
// overwrite of a one-key chain — costs one allocation.
func chainPut[K string | []byte, V any](c *strChain[V], i int, k K, v V, sorted bool) *strChain[V] {
	if i == 0 {
		nc := *c
		nc.head.val = v
		return &nc
	}
	if i > 0 {
		es := c.entries(0)
		es[i].val = v
		return chainOf(es)
	}
	es := c.entries(1)
	at := len(es)
	if sorted {
		for j := range es {
			if cmpKey(es[j].key, k) > 0 {
				at = j
				break
			}
		}
	}
	es = append(es, strEntry[V]{})
	copy(es[at+1:], es[at:])
	es[at] = strEntry[V]{key: string(k), val: v}
	return chainOf(es)
}

// drop returns c without entry i; c must hold more than one entry.
func (c *strChain[V]) drop(i int) *strChain[V] {
	if i == 0 {
		return chainOf(c.rest)
	}
	es := c.entries(0)
	return chainOf(append(es[:i], es[i+1:]...))
}

// --- slot table ---

// A slot handle — the value word StringMap stores in the core — is
// [ gen:32 | shard:4 | index:28 ]. Releasing a slot bumps its generation,
// so a handle read before the release no longer matches and its reader
// searches again; slot reuse is therefore ABA-safe.
const (
	slotShards    = 16
	slotIndexBits = 28
	slotShardSh   = slotIndexBits
	slotGenSh     = 32

	// Segment i of a shard holds slotSegBase<<i slots, so a shard's
	// memory grows with its population: a small map touches one 1 KiB
	// segment per shard it uses, and slotSegs segments address just
	// under 1<<slotIndexBits slots.
	slotSegBase = 64
	slotSegs    = 22
	slotMax     = slotSegBase * (1<<slotSegs - 1)
)

// strSlot publishes one hash's current chain. The chain pointer changes on
// every write of the hash's keys; the generation changes only when the
// slot is released.
type strSlot[V any] struct {
	gen   atomic.Uint32
	chain atomic.Pointer[strChain[V]]
}

// slotShard is one free-list shard. The allocation state (written by
// inserts and removals) has its own cache line, apart from the segment
// directory that every read loads.
type slotShard[V any] struct {
	mu   sync.Mutex
	next uint32   // slots handed out so far: the next never-used index
	free []uint32 // released slots, reused before next grows
	_    [pad.CacheLineSize - 40]byte
	segs [slotSegs]atomic.Pointer[[]strSlot[V]]
	_    [pad.CacheLineSize - slotSegs*8%pad.CacheLineSize]byte
}

// slotTable is StringMap's value store: slotShards padded shards of
// append-only segments. A hash's shard is picked from the hash itself, so
// writers of different keys rarely share a free-list lock, and no
// map-wide counter is touched.
type slotTable[V any] struct {
	shards [slotShards]slotShard[V]
}

// segOf maps a slot index to its segment and the offset inside it: segment
// i starts at index slotSegBase*(2^i - 1).
func segOf(idx uint32) (int, uint32) {
	seg := bits.Len32(idx/slotSegBase+1) - 1
	return seg, idx - slotSegBase*(1<<seg-1)
}

func (s *slotShard[V]) slot(idx uint32) *strSlot[V] {
	seg, off := segOf(idx)
	return &(*s.segs[seg].Load())[off]
}

// locate returns the slot a handle names and the generation it expects.
func (t *slotTable[V]) locate(w core.Value) (*strSlot[V], uint32) {
	sh := (uint64(w) >> slotShardSh) & (slotShards - 1)
	return t.shards[sh].slot(uint32(uint64(w) & (1<<slotIndexBits - 1))), uint32(uint64(w) >> slotGenSh)
}

// load returns the chain handle w names, and false when the slot was
// released after w was read. The chain is loaded before the generation is
// rechecked: release bumps the generation before clearing the chain, and
// a reused slot gets its new chain only after that, so a matching
// generation proves the chain belongs to w. Atomic loads only.
func (t *slotTable[V]) load(w core.Value) (*strChain[V], bool) {
	s, gen := t.locate(w)
	c := s.chain.Load()
	return c, c != nil && s.gen.Load() == gen
}

// swap publishes c as the chain of the live slot w. Callers are the key's
// only writer (see StringMap).
func (t *slotTable[V]) swap(w core.Value, c *strChain[V]) {
	s, _ := t.locate(w)
	s.chain.Store(c)
}

// alloc takes a slot in the shard picked from hash h, publishes c in it,
// and returns its handle. Segments are created here, on first use.
func (t *slotTable[V]) alloc(h uint64, c *strChain[V]) core.Value {
	sh := (h * 0x9E3779B97F4A7C15) >> (64 - 4) // top 4 bits: slotShards == 16
	s := &t.shards[sh]
	s.mu.Lock()
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if s.next == slotMax {
			s.mu.Unlock()
			panic("ascylib: StringMap slot shard exhausted")
		}
		idx = s.next
		s.next++
		if seg, off := segOf(idx); off == 0 {
			segment := make([]strSlot[V], slotSegBase<<seg)
			s.segs[seg].Store(&segment)
		}
	}
	s.mu.Unlock()
	slot := s.slot(idx)
	slot.chain.Store(c)
	return core.Value(uint64(slot.gen.Load())<<slotGenSh | sh<<slotShardSh | uint64(idx))
}

// free releases slot w once the core no longer maps any hash to it.
func (t *slotTable[V]) free(w core.Value) {
	slot, _ := t.locate(w)
	slot.gen.Add(1) // stale handles stop matching before the chain goes
	slot.chain.Store(nil)
	s := &t.shards[(uint64(w)>>slotShardSh)&(slotShards-1)]
	s.mu.Lock()
	s.free = append(s.free, uint32(uint64(w)&(1<<slotIndexBits-1)))
	s.mu.Unlock()
}
