package ascylib

import (
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/ssmem"
)

// StringMap is the string-keyed companion of Map: a concurrent map from
// string keys to an arbitrary value type V, backed by any registered
// algorithm. It exists for the wire-facing layers (the memcached-protocol
// server keys by client-supplied strings), and for any caller whose keys do
// not fit an integer type.
//
// Keys are carried onto the 64-bit core by hashing (FNV-1a) and chaining:
// the core maps each hash to a slot handle, and the slot holds the
// immutable collision chain of (key, value) pairs whose keys share that
// hash. A read is a core Search plus atomic loads of the slot — no lock,
// no store. A write is one core Update whose callback builds the next
// chain; overwriting a live key swaps the new chain into the key's
// existing slot, so the core's value word stays put and the structure
// performs no store of its own. Per-key operations are therefore atomic
// against everything on algorithms with native Update (see Capabilities)
// and atomic against each other elsewhere — and, because overwrites never
// remove and re-insert the core entry, a concurrent Get never sees a live
// key briefly absent on either kind of backend. With a 64-bit hash, chains
// are almost always a single element.
//
// The swap rests on one invariant: StringMap writes its core only through
// Update, so the UpdateFunc of every write runs exactly once. On CLHT-LB it
// runs under the bucket lock. On the generic fallback (core.Extend) every
// write holds the key's lock stripe, an overwrite ends at the fallback's
// "keep && nv == old" no-op exit, and the fallback re-invokes its callback
// only after losing a race to a plain Insert or Remove — which StringMap
// never issues. Slots are allocated only when a hash gains its first key
// and released only after the core has removed it.
//
// Because hashing destroys order, StringMap has no Range/Min/Max; ForEach
// enumerates in no particular order. Use Map for ordered typed keys — or
// OrderedStringMap, which swaps the hash for an order-preserving 8-byte
// prefix encoding so string order survives the trip through the core.
type StringMap[V any] struct {
	set    core.Extended
	raw    core.Set // the unwrapped structure (recycling stats, shard probing)
	ord    core.Ordered
	native bool
	slots  slotTable[V]

	// updS and updB pool the per-write state (chainUpd) for string and
	// []byte keys. Each pooled state carries its UpdateFunc pre-bound, so
	// a write hands the core a callback without allocating one.
	updS, updB sync.Pool

	// ordered selects the order-preserving keying mode (see
	// OrderedStringMap): keys are carried onto the core by their big-endian
	// 8-byte prefix instead of FNV-1a, and collision chains (keys sharing a
	// prefix) are kept lexicographically sorted, so the core's Range/Min/Max
	// enumerate true string order.
	ordered bool
}

// NewStringMap builds a string-keyed map on the named algorithm. The hash
// tables ("ht-clht-lb", "ht-clht-lf") are the natural backends; any
// registered algorithm works.
func NewStringMap[V any](algo string, opts ...Option) (*StringMap[V], error) {
	s, err := core.New(algo, opts...)
	if err != nil {
		return nil, err
	}
	ord, native := core.OrderedOf(s)
	return &StringMap[V]{set: core.Extend(s), raw: s, ord: ord, native: native}, nil
}

// MustNewStringMap is NewStringMap, panicking on error.
func MustNewStringMap[V any](algo string, opts ...Option) *StringMap[V] {
	m, err := NewStringMap[V](algo, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// hash maps a key onto the core's usable key domain (FNV-1a 64, folded away
// from the two reserved top values). Generic over string and []byte so the
// wire-facing byte paths hash without materializing a string.
func strHash[K ~string | ~[]byte](k K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return h % (math.MaxUint64 - 1)
}

// prefixHash is the order-preserving counterpart of strHash: the key's
// first 8 bytes read big-endian (shorter keys are zero-padded on the
// right). It is monotone with respect to lexicographic order — if
// prefixHash(a) < prefixHash(b) then a < b — because the pad byte 0 is <=
// every key byte and validKey-grade keys never contain it. Keys sharing a
// prefix collide onto one core entry, where the chain (kept sorted in
// ordered mode) resolves the tie by full-string comparison. The result is
// clamped below the core's two reserved top keys; the clamp is monotone
// too (everything clamped sorts above everything unclamped, and the
// clamped bucket's chain orders its keys fully).
func prefixHash[K ~string | ~[]byte](k K) uint64 {
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(k) {
			p |= uint64(k[i])
		}
	}
	if p > math.MaxUint64-2 {
		p = math.MaxUint64 - 2
	}
	return p
}

// keyHash routes a key onto the core under the map's keying mode.
func keyHash[K ~string | ~[]byte, V any](m *StringMap[V], k K) uint64 {
	if m.ordered {
		return prefixHash(k)
	}
	return strHash(k)
}

// eqKey compares a stored string key with a string or []byte key without
// allocating (the explicit loop sidesteps any conversion).
func eqKey[K ~string | ~[]byte](s string, k K) bool {
	if len(s) != len(k) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != k[i] {
			return false
		}
	}
	return true
}

// cmpKey three-way-compares a stored string key with a string or []byte
// key without allocating, byte-wise (which for these keys is lexicographic
// order): -1 when s < k, 0 when equal, +1 when s > k.
func cmpKey[K ~string | ~[]byte](s string, k K) int {
	n := len(s)
	if len(k) < n {
		n = len(k)
	}
	for i := 0; i < n; i++ {
		if s[i] != k[i] {
			if s[i] < k[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(k):
		return -1
	case len(s) > len(k):
		return 1
	}
	return 0
}

// coreKey places a key hash in the core's key domain: both hashes stay
// below the two reserved top values, and the shift by one moves them off
// the reserved 0 (the same encoding Map applies to uint64 keys).
func coreKey(h uint64) core.Key { return core.Key(h + 1) }

// getChain is the shared read path: look up the slot under the precomputed
// hash h, load its chain, and scan it for k. Split from Get/GetBytes so the
// sharded facade can route and look up with a single hash computation.
// Only atomic loads: the core Search, then the slot's chain and generation.
func getChain[K ~string | ~[]byte, V any](m *StringMap[V], h uint64, k K) (V, bool) {
	for {
		w, ok := m.set.Search(coreKey(h))
		if !ok {
			break
		}
		c, live := m.slots.load(w)
		if !live {
			// The hash lost its last key, and its slot was released,
			// between the search and the load; search again.
			continue
		}
		if i := chainIndex(c, k); i >= 0 {
			return c.at(i).val, true
		}
		break
	}
	var zero V
	return zero, false
}

// Get returns the value stored under k.
func (m *StringMap[V]) Get(k string) (V, bool) {
	return getChain(m, keyHash(m, k), k)
}

// GetBytes is Get for a []byte key: the hash runs over the slice and chain
// keys are compared byte-wise, so the read path performs no allocation and
// never materializes a string. It is the wire-facing fast path (the server
// keys every get on bytes still sitting in its connection buffer).
func (m *StringMap[V]) GetBytes(k []byte) (V, bool) {
	return getChain(m, keyHash(m, k), k)
}

// GetBytesHashed is GetBytes under a hash the caller already computed (it
// must be strHash of k, e.g. via HashBytes): batch and routing layers hash
// each key exactly once and look up with the same value.
func (m *StringMap[V]) GetBytesHashed(h uint64, k []byte) (V, bool) {
	return getChain(m, h, k)
}

// HashBytes returns the key hash GetBytesHashed expects — one hash
// computation shared between routing, grouping, and lookup.
func HashBytes(k []byte) uint64 { return strHash(k) }

// HashString is HashBytes for a string key: the same FNV-1a hash every
// string-keyed layer (StringMap chains, shard routing, cluster routing)
// derives its placement from, so a key routes identically whether it arrives
// as a string or as bytes off the wire.
func HashString(k string) uint64 { return strHash(k) }

// chainUpd is one write's state. It is pooled per map and key type, and its
// apply field is the step method bound once at construction, so a write
// costs neither a state object nor a callback allocation.
type chainUpd[K string | []byte, V any] struct {
	m     *StringMap[V]
	apply core.UpdateFunc

	h uint64
	k K
	f func(old V, present bool) (V, bool)

	outV       V
	outPresent bool
	// emptied is the handle of a slot whose last key the write removed;
	// it is released once the core has dropped the hash.
	emptied core.Value
	release bool
}

// step is the core UpdateFunc of every write; by the invariant on
// StringMap it runs exactly once per write, with the key's writers
// excluded. It reads the key's chain, applies f, and publishes the result:
// a fresh slot for a hash's first key, a chain swapped into the existing
// slot for every other change (the core word is returned unchanged, which
// both CLHT-LB and the fallback treat as nothing to store), and a removal
// of the core entry when the last key goes.
func (s *chainUpd[K, V]) step(w core.Value, present bool) (core.Value, bool) {
	m := s.m
	var c *strChain[V]
	i := -1
	if present {
		var live bool
		if c, live = m.slots.load(w); !live {
			panic("ascylib: StringMap slot released under a writer of its key")
		}
		i = chainIndex(c, s.k)
	}
	var old V
	if i >= 0 {
		old = c.at(i).val
	}
	nv, keep := s.f(old, i >= 0)
	switch {
	case keep:
		s.outV, s.outPresent = nv, true
		if c == nil {
			return m.slots.alloc(s.h, &strChain[V]{head: strEntry[V]{key: string(s.k), val: nv}}), true
		}
		m.slots.swap(w, chainPut(c, i, s.k, nv, m.ordered))
		return w, true
	case i < 0:
		// Removing an absent key: nothing changes.
		s.outV, s.outPresent = old, false
		return w, present
	default:
		s.outV, s.outPresent = old, false
		if len(c.rest) == 0 {
			s.emptied, s.release = w, true
			return w, false
		}
		m.slots.swap(w, c.drop(i))
		return w, true
	}
}

// updPool returns the map's state pool for key type K.
func updPool[K string | []byte, V any](m *StringMap[V]) *sync.Pool {
	var k K
	if _, ok := any(k).(string); ok {
		return &m.updS
	}
	return &m.updB
}

// updateChain is the shared read-modify-write of one key, generic over
// string and []byte keys, under a precomputed hash (see getChain). The key
// is converted to a string only when a fresh entry is added — overwrites
// and removals reuse the stored key string.
func updateChain[K string | []byte, V any](m *StringMap[V], h uint64, k K, f func(old V, present bool) (V, bool)) (V, bool) {
	pool := updPool[K](m)
	s, _ := pool.Get().(*chainUpd[K, V])
	if s == nil {
		s = &chainUpd[K, V]{m: m}
		s.apply = s.step
	}
	s.h, s.k, s.f = h, k, f
	m.set.Update(coreKey(h), s.apply)
	if s.release {
		m.slots.free(s.emptied)
	}
	v, present := s.outV, s.outPresent
	*s = chainUpd[K, V]{m: m, apply: s.apply} // drop the key, f and value
	pool.Put(s)
	return v, present
}

// Update atomically transforms the entry for k: f receives the current
// value (present reports existence) and returns the new value and whether
// the key should remain present. It returns the value after the update and
// the resulting presence (the removed value with false when the update
// removes the entry). f must be pure and must not call back into the map;
// it runs once per call, and on natively updating algorithms it runs under
// the structure's own lock.
func (m *StringMap[V]) Update(k string, f func(old V, present bool) (V, bool)) (V, bool) {
	return updateChain(m, keyHash(m, k), k, f)
}

// UpdateBytes is Update for a []byte key. The key is copied into a string
// only if the update inserts a fresh entry; updates and removals of
// existing keys run allocation-free with respect to the key.
func (m *StringMap[V]) UpdateBytes(k []byte, f func(old V, present bool) (V, bool)) (V, bool) {
	return updateChain(m, keyHash(m, k), k, f)
}

// putChain, insertChain, getOrInsertChain, and deleteChain are the shared
// bodies of the derived per-key operations, under a precomputed hash — both
// StringMap and ShardedStringMap (which routes on the same hash first) call
// them, so the semantics exist exactly once.

func putChain[V any](m *StringMap[V], h uint64, k string, v V) bool {
	fresh := false
	updateChain(m, h, k, func(_ V, present bool) (V, bool) {
		fresh = !present
		return v, true
	})
	return fresh
}

func insertChain[V any](m *StringMap[V], h uint64, k string, v V) bool {
	if _, ok := getChain(m, h, k); ok {
		return false
	}
	inserted := false
	updateChain(m, h, k, func(old V, present bool) (V, bool) {
		if present {
			inserted = false
			return old, true
		}
		inserted = true
		return v, true
	})
	return inserted
}

func getOrInsertChain[V any](m *StringMap[V], h uint64, k string, v V) (V, bool) {
	if got, ok := getChain(m, h, k); ok {
		return got, false
	}
	got, inserted := v, false
	updateChain(m, h, k, func(old V, present bool) (V, bool) {
		if present {
			got, inserted = old, false
			return old, true
		}
		got, inserted = v, true
		return v, true
	})
	return got, inserted
}

func deleteChain[V any](m *StringMap[V], h uint64, k string) (V, bool) {
	var had bool
	var got V
	updateChain(m, h, k, func(old V, present bool) (V, bool) {
		had, got = present, old
		return old, false
	})
	return got, had
}

// Put stores v under k, replacing any existing value, and reports whether
// the key was fresh.
func (m *StringMap[V]) Put(k string, v V) bool {
	return putChain(m, keyHash(m, k), k, v)
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (m *StringMap[V]) Insert(k string, v V) bool {
	return insertChain(m, keyHash(m, k), k, v)
}

// GetOrInsert returns the existing value for k, or stores and returns v.
func (m *StringMap[V]) GetOrInsert(k string, v V) (V, bool) {
	return getOrInsertChain(m, keyHash(m, k), k, v)
}

// Delete removes k, returning the removed value.
func (m *StringMap[V]) Delete(k string) (V, bool) {
	return deleteChain(m, keyHash(m, k), k)
}

// chains adapts a core enumeration to chains: each yielded slot handle is
// loaded, and a slot released under the walk (its hash lost its last key)
// is skipped.
func (m *StringMap[V]) chains(yield func(c *strChain[V]) bool) func(core.Key, core.Value) bool {
	return func(_ core.Key, w core.Value) bool {
		c, live := m.slots.load(w)
		return !live || yield(c)
	}
}

// Len counts the entries. Like Set.Size: linear time, quiescent use.
func (m *StringMap[V]) Len() int {
	n := 0
	m.set.ForEach(m.chains(func(c *strChain[V]) bool {
		n += c.len()
		return true
	}))
	return n
}

// ForEach enumerates entries, in no particular order, until yield returns
// false. Entries deleted concurrently may be skipped.
func (m *StringMap[V]) ForEach(yield func(k string, v V) bool) {
	m.set.ForEach(m.chains(func(c *strChain[V]) bool { return c.each(yield) }))
}

// Snapshot enumerates entries through the core's consistent-cut traversal
// (see Map.Snapshot) and reports whether the cut is native. Each slot's
// chain is loaded once, at one instant inside the call, so every key in a
// chain is observed at the same instant — a chain can never be
// half-snapshotted — and every yielded value was live at that instant.
func (m *StringMap[V]) Snapshot(yield func(k string, v V) bool) bool {
	sn, native := core.SnapshotterOf(m.raw)
	sn.Snapshot(m.chains(func(c *strChain[V]) bool { return c.each(yield) }))
	return native
}

// RecycleStats returns the backing structure's SSMEM allocator counters
// (zero without recycling); see Map.RecycleStats.
func (m *StringMap[V]) RecycleStats() ssmem.Stats {
	if r, ok := m.raw.(core.Recycler); ok {
		return r.RecycleStats()
	}
	return ssmem.Stats{}
}

// NumShards reports how many structure instances back the map: n when built
// with Sharded(n > 1), otherwise 1. (A ShardedStringMap shards the facade
// itself instead; its shards each report 1 here.)
func (m *StringMap[V]) NumShards() int { return core.NumShards(m.raw) }
