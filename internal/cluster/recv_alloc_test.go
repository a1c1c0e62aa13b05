package cluster

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/server"
)

// cannedConn is a node transport that discards every request and answers
// each read from one reply frame, replayed forever — a receive loop over it
// runs in steady state with no server and no allocation for input. Only
// Read, Write and Close are used by the client; the embedded nil Conn
// panics if anything else is called.
type cannedConn struct {
	net.Conn
	frame []byte
	off   int
}

func (c *cannedConn) Read(p []byte) (int, error) {
	n := copy(p, c.frame[c.off:])
	c.off = (c.off + n) % len(c.frame)
	return n, nil
}

func (c *cannedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *cannedConn) Close() error                { return nil }

// scanReply renders a get-framed response of n entries with 32-byte
// values, keys prefix00, prefix01, … — what one ordered node answers an
// mrange with.
func scanReply(prefix string, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "VALUE %s%02d 7 32\r\n%s\r\n", prefix, i, bytes.Repeat([]byte{'v'}, 32))
	}
	b.WriteString("END\r\n")
	return b.Bytes()
}

// TestClientRecvAllocGate is the scan receive's allocation gate: parsing a
// VALUE stanza must cost exactly one heap block per returned entry (key and
// data share it), and the cluster's k-way merge exactly one allocation per
// scan (its output, sized once). Each figure is taken at two result widths,
// 4 and 28 entries, so a per-entry cost above one or a per-scan cost that
// grows with the result separates them.
func TestClientRecvAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode instrumentation allocates")
	}
	for _, width := range []int{4, 28} {
		t.Run(fmt.Sprintf("RecvGetAppend/%d", width), func(t *testing.T) {
			c := server.NewClientConn(&cannedConn{frame: scanReply("k", width)})
			var dst []server.Entry
			step := func() {
				var err error
				if dst, err = c.RecvGetAppend(dst[:0]); err != nil || len(dst) != width {
					t.Fatalf("entries=%d err=%v", len(dst), err)
				}
			}
			for i := 0; i < 16; i++ {
				step() // steady state: field scratch and dst sized
			}
			if avg := testing.AllocsPerRun(256, step); avg != float64(width) {
				t.Fatalf("RecvGetAppend of %d entries allocates %.2f, want exactly one per entry", width, avg)
			}
		})
		t.Run(fmt.Sprintf("mergeScan/%d", width), func(t *testing.T) {
			c := server.NewClientConn(&cannedConn{frame: scanReply("k", width)})
			a, err := c.RecvGetAppend(nil)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave the entries over two nodes, as routing would.
			var g0, g1 []server.Entry
			for i, e := range a {
				if i%2 == 0 {
					g0 = append(g0, e)
				} else {
					g1 = append(g1, e)
				}
			}
			groups := make([][]server.Entry, 2)
			var out []server.Entry
			step := func() {
				groups[0], groups[1] = g0, g1
				out = mergeScan(groups, server.MaxRangeKeys)
			}
			if avg := testing.AllocsPerRun(256, step); avg != 1 {
				t.Fatalf("mergeScan of %d entries allocates %.2f, want exactly 1", width, avg)
			}
			if len(out) != width || cap(out) != width {
				t.Fatalf("merged len=%d cap=%d, want %d", len(out), cap(out), width)
			}
			for i := range out {
				if out[i].Key != a[i].Key {
					t.Fatalf("merged[%d] = %q, want %q", i, out[i].Key, a[i].Key)
				}
			}
		})
		// The whole cluster receive: two nodes each answering width/2
		// entries, received into the per-node scratch and merged.
		t.Run(fmt.Sprintf("RecvMRange/%d", width), func(t *testing.T) {
			frames := map[string][]byte{"n0": scanReply("a", width/2), "n1": scanReply("b", width/2)}
			c, err := DialOptions(Options{NodeDialer: func(addr string, _ time.Duration) (*server.Client, error) {
				return server.NewClientConn(&cannedConn{frame: frames[addr]}), nil
			}}, "n0", "n1")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			step := func() {
				if err := c.SendMRange("a", "c", 100); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				if es, err := c.RecvMRange(); err != nil || len(es) != width {
					t.Fatalf("entries=%d err=%v", len(es), err)
				}
			}
			for i := 0; i < 16; i++ {
				step() // steady state: scratch sized, rings grown
			}
			if avg := testing.AllocsPerRun(256, step); avg != float64(width+1) {
				t.Fatalf("RecvMRange of %d entries allocates %.2f, want %d (one per entry plus the merged result)", width, avg, width+1)
			}
			for n, buf := range c.scanBufs {
				for _, e := range buf[:cap(buf)] {
					if e.Data != nil {
						t.Fatalf("node %d scratch still holds %q after the merge", n, e.Key)
					}
				}
			}
		})
	}
}
