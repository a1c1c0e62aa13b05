package ascylib

import (
	"math"

	"repro/internal/core"
)

// OrderedStringMap is StringMap's order-preserving sibling: a concurrent
// map from string keys to V whose enumeration order is true lexicographic
// string order, servable by the core's native Range/Min/Max on ordered
// structures (skip lists, BSTs, lists) and by the snapshot-and-sort
// fallback everywhere else.
//
// Where StringMap keys the 64-bit core with FNV-1a — destroying order —
// OrderedStringMap keys it with the key's big-endian 8-byte prefix
// (prefixHash): prefix order is a monotone coarsening of lexicographic
// order, so the core enumerates buckets in string order, and the collision
// chain of keys sharing an 8-byte prefix is kept lexicographically sorted
// to resolve the ties. Enumerating buckets in core-key order and each
// chain in place therefore yields exactly sorted string order.
//
// The trade: keys are placed by structure, not scattered by hash. On the
// ordered structures this is precisely what makes ranges cheap (a scan is
// a bounded in-order walk); on a hash-table backend, clustered prefixes
// cluster buckets, so hash tables should stay in plain StringMap mode
// unless ordered enumeration is required.
//
// All per-key operations are inherited from StringMap unchanged — same
// chain semantics, same atomicity contract, same zero-allocation byte
// paths.
type OrderedStringMap[V any] struct {
	*StringMap[V]
}

// NewOrderedStringMap builds an order-preserving string-keyed map on the
// named algorithm ("sl-fraser-opt" is the headline choice: native ordered
// enumeration; any registered algorithm works via the ordered fallback).
func NewOrderedStringMap[V any](algo string, opts ...Option) (*OrderedStringMap[V], error) {
	m, err := NewStringMap[V](algo, opts...)
	if err != nil {
		return nil, err
	}
	m.ordered = true
	return &OrderedStringMap[V]{StringMap: m}, nil
}

// MustNewOrderedStringMap is NewOrderedStringMap, panicking on error.
func MustNewOrderedStringMap[V any](algo string, opts ...Option) *OrderedStringMap[V] {
	m, err := NewOrderedStringMap[V](algo, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// NativeOrder reports whether the backing structure enumerates in key
// order itself; when false, ranges snapshot and sort (O(n log n)).
func (m *OrderedStringMap[V]) NativeOrder() bool { return m.native }

// RangeBytes yields the entries with lo <= key <= hi in ascending
// lexicographic order, stopping after limit entries (limit <= 0 means
// unbounded), and returns how many were yielded. A nil hi means no upper
// bound; an empty or nil lo starts from the smallest key. Keys are yielded
// as their stored strings — the scan allocates nothing per entry. An
// inverted range (lo > hi) yields nothing. Entries inserted or deleted
// concurrently may or may not be observed; every yielded entry was present
// at some instant during the scan.
func (m *OrderedStringMap[V]) RangeBytes(lo, hi []byte, limit int, fn func(k string, v V) bool) int {
	return rangeBytes(m.StringMap, lo, hi, limit, fn)
}

// Min returns the lexicographically smallest entry.
func (m *OrderedStringMap[V]) Min() (string, V, bool) { return minEntry(m.StringMap) }

// Max returns the lexicographically largest entry.
func (m *OrderedStringMap[V]) Max() (string, V, bool) { return maxEntry(m.StringMap) }

// rangeBytes is the shared bounded-scan body (OrderedStringMap and the
// ordered ShardedStringMap's per-shard scans both run it). It walks the
// core's bucket range [prefixHash(lo), prefixHash(hi)] in order and
// filters each sorted chain by the full string bounds: only the two
// boundary buckets can contain out-of-range keys, so the filter is almost
// always a no-op, and the first key past hi ends the scan globally
// (enumeration is sorted).
func rangeBytes[V any](m *StringMap[V], lo, hi []byte, limit int, fn func(k string, v V) bool) int {
	var plo uint64
	if len(lo) > 0 {
		plo = prefixHash(lo)
	}
	phi := uint64(math.MaxUint64 - 2)
	if hi != nil {
		phi = prefixHash(hi)
	}
	n := 0
	m.ord.Range(coreKey(plo), coreKey(phi), m.chains(func(c *strChain[V]) bool {
		for i := 0; i < c.len(); i++ {
			e := c.at(i)
			if len(lo) > 0 && cmpKey(e.key, lo) < 0 {
				continue
			}
			if hi != nil && cmpKey(e.key, hi) > 0 {
				return false
			}
			if limit > 0 && n >= limit {
				return false
			}
			n++
			if !fn(e.key, e.val) {
				return false
			}
		}
		return true
	}))
	return n
}

// minEntry returns the smallest entry of an ordered StringMap: the first
// element of the smallest bucket's sorted chain.
func minEntry[V any](m *StringMap[V]) (string, V, bool) {
	return endEntry(m, m.ord.Min, func(c *strChain[V]) *strEntry[V] { return &c.head })
}

// maxEntry returns the largest entry of an ordered StringMap: the last
// element of the largest bucket's sorted chain.
func maxEntry[V any](m *StringMap[V]) (string, V, bool) {
	return endEntry(m, m.ord.Max, func(c *strChain[V]) *strEntry[V] { return c.at(c.len() - 1) })
}

// endEntry picks an entry of the chain at one end of the core, searching
// again when that chain's slot is released under the lookup.
func endEntry[V any](m *StringMap[V], end func() (core.Key, core.Value, bool), pick func(*strChain[V]) *strEntry[V]) (string, V, bool) {
	for {
		_, w, ok := end()
		if !ok {
			var zero V
			return "", zero, false
		}
		if c, live := m.slots.load(w); live {
			e := pick(c)
			return e.key, e.val, true
		}
	}
}
