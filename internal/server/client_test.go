package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strconv"
	"testing"
)

// recvClient is a Client whose receive half reads reply from memory; the
// receive paths touch nothing but the reader and the field scratch.
func recvClient(reply []byte) (*Client, *bytes.Reader) {
	r := bytes.NewReader(reply)
	return &Client{br: bufio.NewReaderSize(r, 64<<10)}, r
}

// checkStanzas re-reads the bytes one successful RecvGet consumed and checks
// each entry against the VALUE line it came from: same key and a Data
// exactly as long as the declared size, holding the block's bytes.
func checkStanzas(t *testing.T, raw []byte, es []Entry) {
	t.Helper()
	var fields [][]byte
	for i, e := range es {
		nl := bytes.IndexByte(raw, '\n')
		line := bytes.TrimSuffix(raw[:nl], []byte{'\r'})
		raw = raw[nl+1:]
		fields = splitFields(line, fields)
		size, ok := parseU64(fields[3])
		if !ok || string(fields[1]) != e.Key {
			t.Fatalf("entry %d (%q) does not match its VALUE line %q", i, e.Key, line)
		}
		if uint64(len(e.Data)) != size || cap(e.Data) != len(e.Data) {
			t.Fatalf("entry %d: Data len %d cap %d, declared size %d", i, len(e.Data), cap(e.Data), size)
		}
		if !bytes.Equal(e.Data, raw[:size]) {
			t.Fatalf("entry %d: Data %q, block %q", i, e.Data, raw[:size])
		}
		raw = raw[size+2:]
	}
	if !bytes.HasPrefix(raw, []byte("END")) {
		t.Fatalf("response not closed by END: %q", raw)
	}
}

// FuzzRecvGet checks the client's get receive two ways. On arbitrary reply
// bytes, RecvGet must never panic, never return an entry whose Data length
// differs from the size its VALUE line declared, and never return entries
// together with an error. And entries built from the input, rendered by the
// server's own respWriter.value with and without a CAS token, must come back
// identical.
func FuzzRecvGet(f *testing.F) {
	f.Add([]byte("VALUE k 0 0\r\n\r\nEND\r\n"), []byte{}, uint32(0), uint64(0), false)
	f.Add([]byte("VALUE a 7 5 99\r\nhello\r\nVALUE b 0 2\r\nhi\r\nEND\r\n"), []byte("hello"), uint32(7), uint64(99), true)
	f.Add([]byte("SERVER_ERROR busy\r\n"), []byte("x"), uint32(1), uint64(1), false)
	f.Add([]byte("VALUE k 0 10\r\nshort"), []byte("truncated"), uint32(0), uint64(0), false)
	f.Add([]byte("VALUE k 0 2\r\nhiXXEND\r\n"), []byte("\r\n"), uint32(0), uint64(0), true)
	f.Add([]byte("VALUE k 4294967296 1\r\nx\r\nEND\r\n"), []byte("y"), uint32(1<<32-1), uint64(1<<64-1), true)
	f.Add([]byte("VALUE k 0 -1\r\n\r\nEND\r\n"), []byte("z"), uint32(0), uint64(0), false)
	f.Add([]byte("VALUE k 0 99999999999999999999\r\nEND\r\nCLIENT_ERROR x\r\nERROR\r\n"), []byte{0, 1, 2}, uint32(2), uint64(3), false)
	f.Fuzz(func(t *testing.T, reply, value []byte, flags uint32, cas uint64, withCAS bool) {
		// (a) Arbitrary replies, received one response after another.
		c, r := recvClient(reply)
		off := 0
		for i := 0; i < 16; i++ {
			es, err := c.RecvGet()
			end := len(reply) - r.Len() - c.br.Buffered()
			if err != nil {
				if len(es) != 0 {
					t.Fatalf("%d entries returned with error %v", len(es), err)
				}
				line, found := bytes.CutPrefix(reply[off:], []byte("SERVER_ERROR"))
				if found && bytes.IndexByte(line, '\n') >= 0 && bytes.IndexByte(line, '\n') < 60<<10 {
					var se *ServerError
					if !errors.As(err, &se) {
						t.Fatalf("SERVER_ERROR line gave %T %v, want *ServerError", err, err)
					}
				}
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					break
				}
			} else {
				checkStanzas(t, reply[off:end], es)
			}
			off = end
		}

		// (b) Round trip through the server's response writer: one to
		// three entries, each a slice of value as data and the same bytes
		// folded into printable characters as the key.
		var wire bytes.Buffer
		w := newWriter(&wire, 0)
		var want []Entry
		n := 1 + int(flags%3)
		for i := 0; i < n; i++ {
			data := value[len(value)*i/n : len(value)*(i+1)/n]
			key := []byte{byte('a' + i)}
			for _, b := range data[:min(len(data), 249)] {
				key = append(key, '!'+b%94)
			}
			w.value(key, Item{Flags: flags, CAS: cas, Data: data}, withCAS)
			e := Entry{Key: string(key), Flags: flags, Data: data}
			if withCAS {
				e.CAS = cas
			}
			want = append(want, e)
		}
		w.line("END")
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		c, _ = recvClient(wire.Bytes())
		got, err := c.RecvGet()
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip: %d entries, want %d", len(got), len(want))
		}
		for i := range want {
			g, e := got[i], want[i]
			if g.Key != e.Key || g.Flags != e.Flags || g.CAS != e.CAS || !bytes.Equal(g.Data, e.Data) || len(g.Data) != len(e.Data) {
				t.Fatalf("round trip entry %d: got %+v, want %+v", i, g, e)
			}
		}
	})
}

// TestRecvGetLargeAndCorruptSizes covers the two sides of readEntry's
// allocation policy: a value larger than the up-front allocation still
// arrives whole in one block, and a declared size far beyond the bytes that
// follow fails with an error after allocating about what did arrive, not
// what the line claimed.
func TestRecvGetLargeAndCorruptSizes(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*eagerValue/16+1)
	reply := append([]byte("VALUE big 3 "+strconv.Itoa(len(big))+"\r\n"), big...)
	reply = append(reply, "\r\nEND\r\n"...)
	c, _ := recvClient(reply)
	es, err := c.RecvGet()
	if err != nil || len(es) != 1 {
		t.Fatalf("entries=%d err=%v", len(es), err)
	}
	if e := es[0]; e.Key != "big" || e.Flags != 3 || !bytes.Equal(e.Data, big) || cap(e.Data) != len(big) {
		t.Fatalf("large value came back as key %q flags %d len %d cap %d", e.Key, e.Flags, len(e.Data), cap(e.Data))
	}

	c, _ = recvClient([]byte("VALUE k 0 1099511627776\r\nonly a few bytes"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	es, err = c.RecvGet()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || es != nil {
		t.Fatalf("1 TiB declared over a short block: entries=%v err=%v, want io.ErrUnexpectedEOF", es, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*eagerValue {
		t.Fatalf("a corrupt size allocated %d bytes", grew)
	}
}
