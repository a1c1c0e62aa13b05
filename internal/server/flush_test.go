package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestStoreFlushAllAfterChurn guards the flush_all sweep on fraser-opt. The
// sweep removes a shard's keys in the structure's own order with no inserts
// in between, and when fraser-opt's removers left their nodes linked at the
// upper levels every removal walked all earlier victims: after a churn over
// 131072 keys, FlushAll ran for minutes at 100% CPU. The flush must now
// finish well inside the deadline and leave the store empty. Run it with an
// explicit -timeout (CI does): a regression fails here at the deadline
// instead of hanging the package.
func TestStoreFlushAllAfterChurn(t *testing.T) {
	const keys = 131072
	// The churn only has to leave a populated, mutated skip list behind:
	// the sweep's cost grew with the number of keys it removes, not with
	// how long the churn ran.
	const churn = 200 * time.Millisecond
	// The sweep takes about 0.3 s on a 2-vCPU machine and 4 s under the
	// race detector; the quadratic one ran for minutes.
	deadline := 20 * time.Second
	if raceEnabled {
		deadline = 120 * time.Second
	}
	for _, ordered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ordered-%v", ordered), func(t *testing.T) {
			st, err := NewStore("sl-fraser-opt", keys, true, 1, ordered)
			if err != nil {
				t.Fatal(err)
			}
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
			val := []byte("0123456789abcdef")
			p := st.Pin()
			for i := 0; i < keys; i++ {
				st.Set(p, key(i), 0, 0, val)
			}
			p.Unpin()
			var wg sync.WaitGroup
			stop := time.Now().Add(churn)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for time.Now().Before(stop) {
						for j := 0; j < 256; j++ {
							p := st.Pin()
							k := key(r.Intn(2 * keys))
							if r.Intn(2) == 0 {
								st.Set(p, k, 0, 0, val)
							} else {
								st.Delete(p, k)
							}
							p.Unpin()
						}
					}
				}(w)
			}
			wg.Wait()
			before := st.Items()
			done := make(chan time.Duration, 1)
			go func() {
				start := time.Now()
				p := st.Pin()
				st.FlushAll(p, 0)
				p.Unpin()
				done <- time.Since(start)
			}()
			select {
			case d := <-done:
				t.Logf("flushed %d items in %v", before, d)
			case <-time.After(deadline):
				t.Fatalf("FlushAll of %d items did not return within %v", before, deadline)
			}
			if n := st.Items(); n != 0 {
				t.Fatalf("%d items left after FlushAll", n)
			}
		})
	}
}
