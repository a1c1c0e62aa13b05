package ascylib

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/pad"
	"repro/internal/xrand"
)

func TestStringMapBasic(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			m := MustNewStringMap[string](algo, Capacity(64))
			if _, ok := m.Get("missing"); ok {
				t.Fatal("Get on empty map reported a hit")
			}
			if !m.Insert("a", "1") {
				t.Fatal("first Insert failed")
			}
			if m.Insert("a", "2") {
				t.Fatal("duplicate Insert succeeded")
			}
			if v, ok := m.Get("a"); !ok || v != "1" {
				t.Fatalf("Get(a) = %q, %v", v, ok)
			}
			if fresh := m.Put("a", "3"); fresh {
				t.Fatal("Put on existing key reported fresh")
			}
			if v, _ := m.Get("a"); v != "3" {
				t.Fatalf("Put did not replace: %q", v)
			}
			if got, inserted := m.GetOrInsert("a", "x"); inserted || got != "3" {
				t.Fatalf("GetOrInsert(existing) = %q, %v", got, inserted)
			}
			if got, inserted := m.GetOrInsert("b", "y"); !inserted || got != "y" {
				t.Fatalf("GetOrInsert(fresh) = %q, %v", got, inserted)
			}
			if v, ok := m.Delete("a"); !ok || v != "3" {
				t.Fatalf("Delete(a) = %q, %v", v, ok)
			}
			if _, ok := m.Get("a"); ok {
				t.Fatal("Get after Delete hit")
			}
			if _, ok := m.Delete("a"); ok {
				t.Fatal("double Delete reported removal")
			}
			if n := m.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
			seen := map[string]string{}
			m.ForEach(func(k, v string) bool { seen[k] = v; return true })
			if len(seen) != 1 || seen["b"] != "y" {
				t.Fatalf("ForEach saw %v", seen)
			}
		})
	}
}

func TestStringMapUpdateCounter(t *testing.T) {
	m := MustNewStringMap[int]("ht-clht-lb", Capacity(64))
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Update("ctr", func(old int, _ bool) (int, bool) { return old + 1, true })
			}
		}()
	}
	wg.Wait()
	if v, ok := m.Get("ctr"); !ok || v != workers*rounds {
		t.Fatalf("counter = %d, %v; want %d", v, ok, workers*rounds)
	}
}

func TestStringMapManyKeys(t *testing.T) {
	// Enough keys on a tiny table to exercise hash-chain collisions.
	m := MustNewStringMap[int]("ht-clht-lb", Capacity(4))
	const n = 2000
	for i := 0; i < n; i++ {
		if !m.Insert(fmt.Sprintf("key-%d", i), i) {
			t.Fatalf("Insert key-%d failed", i)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(fmt.Sprintf("key-%d", i)); !ok || v != i {
			t.Fatalf("Get(key-%d) = %d, %v", i, v, ok)
		}
	}
	for i := 0; i < n; i += 2 {
		if _, ok := m.Delete(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("Delete key-%d failed", i)
		}
	}
	if got := m.Len(); got != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", got, n/2)
	}
	for i := 1; i < n; i += 2 {
		if v, ok := m.Get(fmt.Sprintf("key-%d", i)); !ok || v != i {
			t.Fatalf("survivor Get(key-%d) = %d, %v", i, v, ok)
		}
	}
}

func TestStringMapBytesPaths(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			m := MustNewStringMap[string](algo, Capacity(64))
			// Fresh insert through the bytes path materializes the key once.
			m.UpdateBytes([]byte("alpha"), func(_ string, present bool) (string, bool) {
				if present {
					t.Fatal("fresh key reported present")
				}
				return "1", true
			})
			if v, ok := m.Get("alpha"); !ok || v != "1" {
				t.Fatalf("Get after UpdateBytes = %q, %v", v, ok)
			}
			if v, ok := m.GetBytes([]byte("alpha")); !ok || v != "1" {
				t.Fatalf("GetBytes = %q, %v", v, ok)
			}
			if _, ok := m.GetBytes([]byte("beta")); ok {
				t.Fatal("GetBytes hit on absent key")
			}
			// Overwrite through bytes, read through string.
			m.UpdateBytes([]byte("alpha"), func(old string, present bool) (string, bool) {
				if !present || old != "1" {
					t.Fatalf("old = %q, %v", old, present)
				}
				return "2", true
			})
			if v, _ := m.Get("alpha"); v != "2" {
				t.Fatalf("after overwrite: %q", v)
			}
			// Remove through bytes.
			if _, present := m.UpdateBytes([]byte("alpha"), func(old string, _ bool) (string, bool) {
				return old, false
			}); present {
				t.Fatal("remove reported still present")
			}
			if _, ok := m.Get("alpha"); ok {
				t.Fatal("key survived UpdateBytes remove")
			}
		})
	}
}

// TestStringMapGetBytesZeroAlloc is one of the PR's allocation gates: a
// steady-state GetBytes hit must not allocate (no string materialization,
// no chain copying) on the headline hash-table backends.
func TestStringMapGetBytesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf"} {
		t.Run(algo, func(t *testing.T) {
			m := MustNewStringMap[uint64](algo, Capacity(256))
			key := []byte("benchmark-key")
			m.UpdateBytes(key, func(_ uint64, _ bool) (uint64, bool) { return 42, true })
			var v uint64
			var ok bool
			if avg := testing.AllocsPerRun(200, func() {
				v, ok = m.GetBytes(key)
			}); avg != 0 {
				t.Fatalf("GetBytes allocates %.1f/op, want 0", avg)
			}
			if !ok || v != 42 {
				t.Fatalf("GetBytes = %d, %v", v, ok)
			}
		})
	}
}

// TestStringMapUpdateStagingIsolated: the staging chain reused across
// speculative Update invocations must never leak into a published chain
// that a concurrent reader still holds (values read back must always be
// internally consistent).
func TestStringMapUpdateStagingIsolated(t *testing.T) {
	m := MustNewStringMap[[2]uint64]("ht-clht-lb", Capacity(64))
	const writers, rounds = 4, 2000
	var readerErr error
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // reader: every observed value must be a (x, x) pair
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v, ok := m.GetBytes([]byte("pair")); ok && v[0] != v[1] {
				readerErr = fmt.Errorf("torn pair: %v", v)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := uint64(w*rounds + i)
				m.UpdateBytes([]byte("pair"), func(_ [2]uint64, _ bool) ([2]uint64, bool) {
					return [2]uint64{x, x}, true
				})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if v, ok := m.Get("pair"); !ok || v[0] != v[1] {
		t.Fatalf("final value torn: %v %v", v, ok)
	}
}

// churnMap is the per-key surface shared by the three facades the churn
// gate drives.
type churnMap interface {
	GetBytes(k []byte) ([2]uint64, bool)
	UpdateBytes(k []byte, f func(old [2]uint64, present bool) ([2]uint64, bool)) ([2]uint64, bool)
}

// TestStringMapChurnGate races readers against writers that delete and
// reinsert the same keys, so slots are released and reused under the
// readers, while other goroutines bump counters through UpdateBytes. Every
// value read must be a pair some writer stored under that very key (the
// key's index rides in the value, and the two halves must agree), and no
// counter bump may be lost. It covers the native-Update hash table and two
// fallback structures, each in hash mode, ordered mode (where the shared
// 8-byte prefix of the "churnkey" keys builds long sorted chains beside
// one-key chains) and as a 4-shard ShardedStringMap. Meant for -race.
func TestStringMapChurnGate(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ll-lazy", "sl-fraser-opt"} {
		t.Run(algo+"/hash", func(t *testing.T) {
			runChurnGate(t, MustNewStringMap[[2]uint64](algo, Capacity(64)), nil)
		})
		t.Run(algo+"/ordered", func(t *testing.T) {
			m := MustNewOrderedStringMap[[2]uint64](algo, Capacity(64))
			runChurnGate(t, m, m)
		})
		t.Run(algo+"/sharded-4", func(t *testing.T) {
			runChurnGate(t, MustNewShardedStringMap[[2]uint64](algo, 4, Capacity(64)), nil)
		})
	}
}

func runChurnGate(t *testing.T, m churnMap, ordered *OrderedStringMap[[2]uint64]) {
	const (
		churnKeys   = 24
		counterKeys = 4
		churners    = 3
		churnOps    = 2000
		bumpers     = 3
		bumps       = 300
		readers     = 2
		tagBit      = uint64(1) << 63
	)
	var keys []string
	for i := 0; i < churnKeys+counterKeys; i++ {
		if i%2 == 0 {
			keys = append(keys, fmt.Sprintf("churnkey%03d", i)) // one shared ordered prefix
		} else {
			keys = append(keys, fmt.Sprintf("c%03d", i)) // a prefix of its own
		}
	}
	index := map[string]int{}
	for i, k := range keys {
		index[k] = i
	}
	// check reports why v cannot have been stored under key i, or "".
	check := func(i int, v [2]uint64) string {
		switch {
		case v[0] != v[1]:
			return fmt.Sprintf("torn pair %v", v)
		case i >= churnKeys:
			if v[0] > bumpers*bumps {
				return fmt.Sprintf("counter %d past its final value", v[0])
			}
		case v[0]&tagBit == 0 || int(v[0]>>32&0x7fffffff) != i:
			return fmt.Sprintf("value %#x was never stored under this key", v[0])
		}
		return ""
	}

	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	var writers, all sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < churners; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := xrand.New(uint64(w) + 1)
			for op := 0; op < churnOps && !failed.Load(); op++ {
				i := rng.Intn(churnKeys)
				tag := tagBit | uint64(i)<<32 | uint64(w*churnOps+op)
				keep := rng.Intn(2) == 0
				m.UpdateBytes([]byte(keys[i]), func(old [2]uint64, _ bool) ([2]uint64, bool) {
					return [2]uint64{tag, tag}, keep
				})
			}
		}(w)
	}
	for b := 0; b < bumpers; b++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for r := 0; r < bumps; r++ {
				for i := churnKeys; i < len(keys); i++ {
					m.UpdateBytes([]byte(keys[i]), func(old [2]uint64, _ bool) ([2]uint64, bool) {
						return [2]uint64{old[0] + 1, old[1] + 1}, true
					})
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		all.Add(1)
		go func(r int) {
			defer all.Done()
			rng := xrand.New(uint64(r) + 100)
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(len(keys))
				if v, ok := m.GetBytes([]byte(keys[i])); ok {
					if why := check(i, v); why != "" {
						fail("GetBytes(%s): %s", keys[i], why)
						return
					}
				}
				if ordered == nil || r != 0 {
					continue
				}
				prev := ""
				ordered.RangeBytes(nil, nil, 0, func(k string, v [2]uint64) bool {
					j, known := index[k]
					if !known || k <= prev {
						fail("RangeBytes yielded %q after %q", k, prev)
						return false
					}
					if why := check(j, v); why != "" {
						fail("RangeBytes(%s): %s", k, why)
						return false
					}
					prev = k
					return true
				})
			}
		}(r)
	}
	writers.Wait()
	close(done)
	all.Wait()
	for i := churnKeys; i < len(keys); i++ {
		if v, ok := m.GetBytes([]byte(keys[i])); !ok || v != [2]uint64{bumpers * bumps, bumpers * bumps} {
			t.Errorf("counter %s = %v, %v; want %d: lost updates", keys[i], v, ok, bumpers*bumps)
		}
	}
}

// TestShardPadding pins the cache-line layout the free-list shards rely
// on: StringMap's slot shards are whole cache lines, and a slot shard's
// allocation state shares no line with the segment directory that every
// read loads.
func TestShardPadding(t *testing.T) {
	var s slotShard[string]
	if n := unsafe.Sizeof(s); n%pad.CacheLineSize != 0 {
		t.Errorf("slotShard is %d bytes, not a whole number of cache lines", n)
	}
	if off := unsafe.Offsetof(s.segs); off != pad.CacheLineSize {
		t.Errorf("slotShard.segs at offset %d, want %d", off, pad.CacheLineSize)
	}
}
