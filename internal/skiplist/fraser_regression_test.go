package skiplist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// TestFraserOptChurnRegression guards against the marked-ref parse bug: the
// optimistic parse can hand an update a ref read from a predecessor that was
// fully removed during the level descent; CASing such a ref used to lose
// inserts and admit duplicates. The test churns hard and then audits
// presence accounting and the level-0 structure.
func TestFraserOptChurnRegression(t *testing.T) {
	for round := 0; round < 6; round++ {
		l := NewFraser(core.DefaultConfig(), true)
		const workers = 8
		const keyRange = 64
		var present [keyRange + 1]atomic.Int64
		var insT, remT [keyRange + 1]atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*100 + w)))
				for i := 0; i < 5000; i++ {
					k := core.Key(r.Intn(keyRange) + 1)
					switch r.Intn(3) {
					case 0:
						if l.Insert(k, core.Value(k)) {
							present[k].Add(1)
							insT[k].Add(1)
						}
					case 1:
						if _, ok := l.Remove(k); ok {
							present[k].Add(-1)
							remT[k].Add(1)
						}
					default:
						l.Search(k)
					}
				}
			}(w)
		}
		wg.Wait()
		for k := core.Key(1); k <= keyRange; k++ {
			n := present[k].Load()
			_, ok := l.Search(k)
			if ok != (n == 1) {
				// Dump level-0 neighbourhood of k.
				t.Logf("round %d key %d: search=%v presence=%d inserts=%d removes=%d", round, k, ok, n, insT[k].Load(), remT[k].Load())
				found := false
				for curr := l.head.next[0].Load().n; curr != l.tail; {
					ref := curr.next[0].Load()
					if curr.key == k {
						t.Logf("  level0 has key %d marked=%v height=%d", curr.key, ref.marked, len(curr.next))
						if !ref.marked {
							found = true
						}
					}
					curr = ref.n
				}
				t.Logf("  level0 reachable unmarked: %v", found)
				// Check upper levels for the key.
				for lvl := 1; lvl < l.maxLevel; lvl++ {
					for curr := l.head.next[lvl].Load().n; curr != nil && curr != l.tail; {
						ref := curr.next[lvl].Load()
						if curr.key == k {
							t.Logf("  level%d has key %d marked=%v", lvl, curr.key, ref.marked)
						}
						curr = ref.n
					}
				}
				t.Fatalf("inconsistency found in round %d", round)
			}
		}
	}
}

// TestFraserOptRemoveTraversalBound guards against quadratic removal: a
// fraser-opt remover must unlink its node at every level it can, not only
// at level 0. Before, with no inserts to swallow them, every earlier
// victim stayed linked at its upper levels, so each parse walked all of
// them and removing n keys in ascending order cost O(n²) hops (a flush_all
// of 65536 keys took minutes). Single-goroutine, so every unlink CAS
// succeeds; the bound is on counted hops (perf.EvTraverse), not time. A
// correct skip list averages about 2·log2 n hops per descent.
func TestFraserOptRemoveTraversalBound(t *testing.T) {
	const n = 1 << 14
	const log2n = 14
	l := NewFraser(core.DefaultConfig(), true)
	for k := core.Key(1); k <= n; k++ {
		l.Insert(k, core.Value(k))
	}
	var rm perf.Ctx
	for k := core.Key(1); k <= n/2; k++ {
		if _, ok := l.RemoveCtx(&rm, k); !ok {
			t.Fatalf("remove %d failed", k)
		}
	}
	if per := float64(rm.Count(perf.EvTraverse)) / (n / 2); per > 4*log2n {
		t.Fatalf("ascending removes traversed %.1f nodes each, want <= %d (4·log2 n)", per, 4*log2n)
	}
	var sc perf.Ctx
	const searches = 256
	for i := 0; i < searches; i++ {
		k := core.Key(n/2 + 1 + i*(n/2/searches))
		if _, ok := l.SearchCtx(&sc, k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
	if per := float64(sc.Count(perf.EvTraverse)) / searches; per > 4*log2n {
		t.Fatalf("searches across the surviving keys traversed %.1f nodes each, want <= %d (4·log2 n)", per, 4*log2n)
	}
	// No removed node is still reachable at any level.
	for lvl := 0; lvl < l.maxLevel; lvl++ {
		for curr := l.head.next[lvl].Load().n; curr != l.tail; curr = curr.next[lvl].Load().n {
			if curr.key <= n/2 {
				t.Fatalf("removed key %d still linked at level %d", curr.key, lvl)
			}
		}
	}
}
