package main

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/server"
)

// Shadow states of a key.
const (
	stAbsent uint8 = iota
	stLive
	stUnknown // a write to it failed: any answer is accepted until the next write
)

// shadowEntry is the checker's view of one key: what its owner last wrote.
// expLo and expHi bracket a TTL'd item's expiry (unix seconds): the item is
// certainly live before second expLo and certainly dead from second expHi
// (0 while the set's reply is outstanding).
type shadowEntry struct {
	ver   uint32
	size  uint16
	off   uint16
	state uint8
	expLo int64
	expHi int64
}

// checker keeps the shadow of every key and judges each reply against it.
// Every key has one owning connection, and only the owner writes it or
// reads its entry, so connections share the table without locking.
type checker struct {
	w       *workload
	keys    []string
	pattern []byte
	sh      []shadowEntry
}

func newChecker(w *workload, keys []string, pattern []byte, pre []uint32, size, off []uint16) *checker {
	c := &checker{w: w, keys: keys, pattern: pattern, sh: make([]shadowEntry, len(keys))}
	for i, k := range pre {
		c.sh[k] = shadowEntry{size: size[i], off: off[i], state: stLive}
	}
	return c
}

func (c *checker) value(size, off uint16) []byte { return valueOf(c.pattern, size, off) }

// Expectations for a reply.
const (
	expAny    uint8 = iota // not owned or unknown: only the shape is checked
	expHit                 // must be present with the shadow's value
	expMiss                // must be absent
	expEither              // a TTL boundary: present with the shadow's value, or absent
)

// pending is one sent operation awaiting its reply.
type pending struct {
	op    op
	ver   uint32
	state uint8
	size  uint16
	off   uint16
	expLo int64
	scan  []scanEntry // exact scan answer when the connection owns every key
	exact bool
}

// scanEntry is one key a scan must return, with the value it held at send.
type scanEntry struct {
	key       uint32
	size, off uint16
}

// onSend records op o, sent by connection conn in a window that started at
// unix second sendSec, and returns what its reply must satisfy.
func (c *checker) onSend(conn int, o op, sendSec int64, p *pending) {
	*p = pending{op: o, scan: p.scan[:0]}
	switch o.kind {
	case opGet, opDel:
		if c.w.owner(o.key) != conn {
			p.state = stUnknown
			break
		}
		e := &c.sh[o.key]
		p.ver, p.state, p.size, p.off, p.expLo = e.ver, e.state, e.size, e.off, e.expLo
		if o.kind == opDel {
			*e = shadowEntry{ver: e.ver + 1, state: stAbsent}
		}
	case opSet:
		e := &c.sh[o.key]
		*e = shadowEntry{ver: e.ver + 1, size: o.size, off: o.off, state: stLive}
		if o.ttl {
			e.expLo = sendSec + c.w.ttl
		}
		p.ver = e.ver
	case opScan:
		if c.w.conns != 1 {
			break
		}
		p.exact = true
		for k := o.key; k <= o.key+uint32(c.w.span) && len(p.scan) < c.w.span; k++ {
			e := &c.sh[k]
			if e.state == stUnknown || e.expLo != 0 {
				p.exact = false
				break
			}
			if e.state == stLive {
				p.scan = append(p.scan, scanEntry{k, e.size, e.off})
			}
		}
	}
}

// expect resolves the expectation of a get or delete whose window started
// at sendSec and whose reply arrived at recvSec.
func (c *checker) expect(p *pending, sendSec, recvSec int64) uint8 {
	switch p.state {
	case stAbsent:
		return expMiss
	case stUnknown:
		return expAny
	}
	if p.expLo == 0 || recvSec < p.expLo {
		return expHit
	}
	if e := &c.sh[p.op.key]; e.ver == p.ver && e.expHi != 0 && sendSec >= e.expHi {
		return expMiss
	}
	return expEither
}

// onStored records a set's reply time, fixing its expiry's upper bound.
func (c *checker) onStored(p *pending, recvSec int64) {
	if e := &c.sh[p.op.key]; p.op.ttl && e.ver == p.ver {
		e.expHi = recvSec + c.w.ttl
	}
}

// onFail marks a failed write's key unknown.
func (c *checker) onFail(p *pending) {
	if p.op.kind == opSet || p.op.kind == opDel {
		e := &c.sh[p.op.key]
		*e = shadowEntry{ver: e.ver + 1, state: stUnknown}
	}
}

// checkGet judges a get reply of n entries carrying dataBytes.
func (c *checker) checkGet(p *pending, exp uint8, n int, dataBytes int64) error {
	switch {
	case n > 1:
		return fmt.Errorf("get %s: %d entries", c.keys[p.op.key], n)
	case n == 0 && exp == expHit:
		return fmt.Errorf("get %s: miss, want %d bytes", c.keys[p.op.key], p.size)
	case n == 1 && exp == expMiss:
		return fmt.Errorf("get %s: hit with %d bytes, want miss", c.keys[p.op.key], dataBytes)
	case n == 1 && (exp == expHit || exp == expEither) && dataBytes != int64(p.size):
		return fmt.Errorf("get %s: %d bytes, want %d", c.keys[p.op.key], dataBytes, p.size)
	case n == 1 && exp == expAny && (dataBytes < int64(c.w.minVal) || dataBytes > int64(c.w.maxVal)):
		return fmt.Errorf("get %s: %d bytes, outside every written size", c.keys[p.op.key], dataBytes)
	}
	return nil
}

// checkDelete judges a delete reply.
func (c *checker) checkDelete(p *pending, exp uint8, deleted bool) error {
	if (exp == expHit && !deleted) || (exp == expMiss && deleted) {
		return fmt.Errorf("delete %s: deleted=%v, want %v", c.keys[p.op.key], deleted, exp == expHit)
	}
	return nil
}

// keyIndex parses a wire key back to its index.
func keyIndex(k string) (uint32, bool) {
	if len(k) != 8 || k[0] != 'k' {
		return 0, false
	}
	n, err := strconv.Atoi(k[1:])
	return uint32(n), err == nil
}

// checkScan judges an mrange reply: ascending keys inside the bounds, at
// most span of them, and — when the connection owns every key — exactly
// the live keys the shadow holds, with their bytes.
func (c *checker) checkScan(p *pending, es []server.Entry) error {
	lo, hi := p.op.key, p.op.key+uint32(c.w.span)
	if len(es) > c.w.span {
		return fmt.Errorf("mrange %s..%s: %d entries over limit %d", c.keys[lo], c.keys[hi], len(es), c.w.span)
	}
	prev := uint32(0)
	for i := range es {
		k, ok := keyIndex(es[i].Key)
		switch {
		case !ok:
			return fmt.Errorf("mrange: malformed key %q", es[i].Key)
		case k < lo || k > hi:
			return fmt.Errorf("mrange %s..%s: key %s out of bounds", c.keys[lo], c.keys[hi], es[i].Key)
		case k <= prev:
			return fmt.Errorf("mrange %s..%s: key %s not ascending", c.keys[lo], c.keys[hi], es[i].Key)
		}
		prev = k
	}
	if !p.exact {
		return nil
	}
	if len(es) != len(p.scan) {
		return fmt.Errorf("mrange %s..%s: %d entries, want %d", c.keys[lo], c.keys[hi], len(es), len(p.scan))
	}
	for i, want := range p.scan {
		if got, _ := keyIndex(es[i].Key); got != want.key {
			return fmt.Errorf("mrange %s..%s: entry %d is %s, want %s", c.keys[lo], c.keys[hi], i, es[i].Key, c.keys[want.key])
		}
		if !bytes.Equal(es[i].Data, c.value(want.size, want.off)) {
			return fmt.Errorf("mrange: %s holds the wrong bytes", c.keys[want.key])
		}
	}
	return nil
}

// checkRead judges a read-back of an owned key: hit or miss by the shadow,
// and the exact bytes on a hit.
func (c *checker) checkRead(k uint32, es []server.Entry, sendSec, recvSec int64) (liveBytes int, err error) {
	e := &c.sh[k]
	p := pending{op: op{kind: opGet, key: k}, ver: e.ver, state: e.state, size: e.size, off: e.off, expLo: e.expLo}
	exp := c.expect(&p, sendSec, recvSec)
	var data []byte
	if len(es) == 1 {
		data = es[0].Data
	}
	if err := c.checkGet(&p, exp, len(es), int64(len(data))); err != nil {
		return 0, fmt.Errorf("read-back: %w", err)
	}
	if len(es) == 0 {
		return 0, nil
	}
	if es[0].Key != c.keys[k] {
		return 0, fmt.Errorf("read-back %s: reply for %s", c.keys[k], es[0].Key)
	}
	if exp != expAny && !bytes.Equal(data, c.value(e.size, e.off)) {
		return 0, fmt.Errorf("read-back %s: wrong bytes", c.keys[k])
	}
	return len(c.keys[k]) + len(data), nil
}
