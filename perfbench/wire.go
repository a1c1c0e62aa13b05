package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// node is one in-process ascyserve server.
type node struct {
	srv  *server.Server
	addr string
	done chan error
}

func bootNode(w *workload, snapPath string) (*node, error) {
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0", Algo: w.algo, Shards: w.shards, Ordered: w.ordered,
		SnapshotPath: snapPath,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	n := &node{srv: srv, addr: srv.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve() }()
	return n, nil
}

func (n *node) close() error {
	err := n.srv.Close()
	if serr := <-n.done; err == nil {
		err = serr
	}
	return err
}

// rig is the set of servers one run drives.
type rig struct {
	w     *workload
	nodes []*node

	mu   sync.Mutex
	nets []*benchConn // every generator transport ever dialed
}

// abortAll closes every generator transport, unblocking any reader.
func (r *rig) abortAll() {
	r.mu.Lock()
	for _, bc := range r.nets {
		bc.Conn.Close()
	}
	r.mu.Unlock()
}

func (r *rig) addrs() []string {
	a := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		a[i] = n.addr
	}
	return a
}

func (r *rig) close() error {
	var first error
	for _, n := range r.nodes {
		if err := n.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stats sums the named counters over every node.
func (r *rig) stats(names ...string) []uint64 {
	out := make([]uint64, len(names))
	for _, n := range r.nodes {
		m := n.srv.StatsMap()
		for i, name := range names {
			v, _ := strconv.ParseUint(m[name], 10, 64)
			out[i] += v
		}
	}
	return out
}

// recorder keeps the bytes one connection wrote (each Write a chunk: one
// flushed window) and read, for the in-process protocol and client replays.
type recorder struct {
	on     bool
	out    []byte
	chunks []int // end offset in out of each Write
	in     []byte
}

// benchConn is the generator's side of one TCP connection. A traced one
// also sums the time spent inside the transport's Read: the generator
// waiting for replies rather than working.
type benchConn struct {
	net.Conn
	rec    *recorder // nil: not traced
	waitNs int64
}

func (c *benchConn) Read(p []byte) (int, error) {
	if c.rec == nil {
		return c.Conn.Read(p)
	}
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.waitNs += int64(time.Since(t))
	if c.rec.on {
		c.rec.in = append(c.rec.in, p[:n]...)
	}
	return n, err
}

func (c *benchConn) Write(p []byte) (int, error) {
	if c.rec != nil && c.rec.on {
		c.rec.out = append(c.rec.out, p...)
		c.rec.chunks = append(c.rec.chunks, len(c.rec.out))
	}
	return c.Conn.Write(p)
}

// endpoint is what the generator drives: a server.Client or a cluster.Client.
type endpoint interface {
	SendGet1(withCAS bool, key string) error
	SendStore(verb, key string, flags uint32, exptime int64, data []byte, casid uint64) error
	SendDelete(key string) error
	SendMRange(lo, hi string, limit uint64) error
	Flush() error
	RecvGetN() (entries int, dataBytes int64, err error)
	RecvGet() ([]server.Entry, error)
	RecvStored() (bool, error)
	RecvDeleted() (bool, error)
	Abort() error
	Close() error
}

// conn is one generator connection with its transports.
type conn struct {
	ep       endpoint
	recvScan func() ([]server.Entry, error)
	cl       *cluster.Client // nil for a single server

	mu     sync.Mutex
	nets   []*benchConn // every transport, in node order for a cluster
	record bool
}

func (r *rig) track(c *conn, nc net.Conn) *benchConn {
	bc := &benchConn{Conn: nc}
	r.mu.Lock()
	r.nets = append(r.nets, bc)
	r.mu.Unlock()
	c.mu.Lock()
	if c.record {
		bc.rec = &recorder{on: true}
	}
	c.nets = append(c.nets, bc)
	c.mu.Unlock()
	return bc
}

// setDeadline arms every transport's read and write deadline.
func (c *conn) setDeadline(t time.Time) {
	c.mu.Lock()
	for _, bc := range c.nets {
		bc.SetDeadline(t)
	}
	c.mu.Unlock()
}

// recorded is the number of bytes the transports have recorded so far.
func (c *conn) recorded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, bc := range c.nets {
		if bc.rec != nil {
			n += len(bc.rec.in) + len(bc.rec.out)
		}
	}
	return n
}

func (c *conn) stopRecording() {
	c.mu.Lock()
	for _, bc := range c.nets {
		if bc.rec != nil {
			bc.rec.on = false
		}
	}
	c.mu.Unlock()
}

const dialTimeout = 2 * time.Second

// dial opens one generator connection: a plain client for a single node, a
// cluster client over every node otherwise.
func (r *rig) dial(record bool) (*conn, error) {
	c := &conn{record: record}
	dialNode := func(addr string) (*server.Client, error) {
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			return nil, err
		}
		return server.NewClientConn(r.track(c, nc)), nil
	}
	if len(r.nodes) == 1 {
		sc, err := dialNode(r.nodes[0].addr)
		if err != nil {
			return nil, err
		}
		c.ep, c.recvScan = sc, sc.RecvGet
		return c, nil
	}
	cl, err := cluster.DialOptions(cluster.Options{
		NodeDialer: func(addr string, _ time.Duration) (*server.Client, error) { return dialNode(addr) },
	}, r.addrs()...)
	if err != nil {
		return nil, err
	}
	c.ep, c.recvScan, c.cl = cl, cl.RecvMRange, cl
	return c, nil
}

// fillWindow is the pipeline depth of the set-up fill.
const fillWindow = 128

// fillConns is how many connections the set-up fill runs in parallel.
const fillConns = 2

// fill stores every preloaded key over the wire, fillConns connections
// each storing its share fillWindow sets per flush.
func fill(r *rig, in *input) error {
	errs := make([]error, fillConns)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fillPart(r, in, len(in.pre)*i/fillConns, len(in.pre)*(i+1)/fillConns)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fillPart stores preloaded keys lo..hi-1 over one connection.
func fillPart(r *rig, in *input, lo, hi int) error {
	c, err := r.dial(false)
	if err != nil {
		return err
	}
	defer c.ep.Close()
	c.setDeadline(time.Now().Add(30 * time.Second))
	for i := lo; i < hi; i += fillWindow {
		end := min(i+fillWindow, hi)
		for j := i; j < end; j++ {
			if err := c.ep.SendStore("set", in.keys[in.pre[j]], 0, 0, valueOf(in.pattern, in.size[j], in.off[j]), 0); err != nil {
				return err
			}
		}
		if err := c.ep.Flush(); err != nil {
			return err
		}
		for j := i; j < end; j++ {
			ok, err := c.ep.RecvStored()
			if err != nil {
				return fmt.Errorf("fill %s: %w", in.keys[in.pre[j]], err)
			}
			if !ok {
				return fmt.Errorf("fill %s: not stored", in.keys[in.pre[j]])
			}
		}
	}
	return nil
}

// input is everything generated from the seed before any server boots.
type input struct {
	w       *workload
	seed    uint64
	keys    []string
	pattern []byte
	pre     []uint32
	size    []uint16
	off     []uint16
	dir     string // this run's directory inside the checkout, removed at exit
	snap    string // set-storm: snapshot of the preload
}

func newInput(w *workload, seed uint64, dir string) *input {
	in := &input{w: w, seed: seed, keys: keyTable(w.domain()), pattern: valuePattern(seed, w.maxVal), dir: dir}
	in.pre, in.size, in.off = preload(w, seed)
	return in
}

// writeSnapshot writes the preload as a snapshot file, the warm-restart
// source, outside the set-up clock.
func (in *input) writeSnapshot(tr *tracer) error {
	st, err := server.NewStore(in.w.algo, 0, true, in.w.shards, in.w.ordered)
	if err != nil {
		return err
	}
	p := st.Pin()
	for i, k := range in.pre {
		st.Set(p, []byte(in.keys[k]), 0, 0, valueOf(in.pattern, in.size[i], in.off[i]))
	}
	p.Unpin()
	in.snap = filepath.Join(in.dir, "preload.snap")
	f, err := os.Create(in.snap)
	if err != nil {
		return err
	}
	t0 := tr.now()
	if _, err := st.SnapshotTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	tr.end(spSnapWrite, t0)
	return f.Close()
}

// setup boots the workload's servers and loads the keyspace, returning the
// wall time until every node serves the full keyspace.
func setup(in *input) (*rig, time.Duration, error) {
	w := in.w
	r := &rig{w: w}
	snap := ""
	if w.warmBoot {
		snap = in.snap
	}
	start := time.Now()
	for i := 0; i < w.nodes; i++ {
		n, err := bootNode(w, snap)
		if err != nil {
			r.close()
			return nil, 0, err
		}
		r.nodes = append(r.nodes, n)
	}
	if w.warmBoot {
		// Serving means answering: one round trip per node.
		for _, n := range r.nodes {
			sc, err := server.Dial(n.addr)
			if err != nil {
				r.close()
				return nil, 0, err
			}
			_, err = sc.Version()
			sc.Close()
			if err != nil {
				r.close()
				return nil, 0, err
			}
		}
	} else if err := fill(r, in); err != nil {
		r.close()
		return nil, 0, err
	}
	took := time.Since(start)
	if got := r.stats("curr_items")[0]; got != uint64(len(in.pre)) {
		r.close()
		return nil, 0, fmt.Errorf("setup: %d items serving, want %d", got, len(in.pre))
	}
	return r, took, nil
}

// numSlices splits the measured time of a run into equal slices; the
// end-to-end rates and latencies come from the clean ones (see
// cleanStats).
const numSlices = 192

// slice is what completed in one slice of the window, by the start time of
// the operation's batch window.
type slice struct {
	ops           uint64
	reads, writes []uint32 // latencies, ns
}

// connRun is one connection's account of a measured window.
type connRun struct {
	windows  int
	ops      [numKinds]uint64
	failed   uint64
	errs     []string
	slices   []slice
	tr       *tracer
	recorded int // windows fully recorded (traced runs)
	c        *conn
}

// maxErrs bounds the failure messages kept per connection.
const maxErrs = 8

func (cr *connRun) fail(chk *checker, p *pending, err error) {
	cr.failed++
	chk.onFail(p)
	if len(cr.errs) < maxErrs {
		cr.errs = append(cr.errs, err.Error())
	}
}

// errDesync marks a failure after which the reply stream is out of step.
var errDesync = errors.New("transport failed")

// recordLimit bounds the bytes a traced connection records for the replays.
const recordLimit = 8 << 20

// measure drives every connection closed-loop for d and returns their
// accounts and the CPU time stolen from the host in each slice. With
// traced set, the calls into the client and cluster layers are wrapped in
// spans, and the transports time their reads and record their bytes for
// the replays.
func measure(in *input, r *rig, chk *checker, d time.Duration, nslices int, stream uint64, traced bool) ([]*connRun, []int64, error) {
	w := in.w
	runs := make([]*connRun, w.conns)
	for i := range runs {
		c, err := r.dial(traced)
		if err != nil {
			for _, cr := range runs[:i] {
				cr.c.ep.Close()
			}
			return nil, nil, err
		}
		runs[i] = &connRun{c: c, slices: make([]slice, nslices)}
	}
	base := time.Now()
	var progress atomic.Uint64
	var stop atomic.Bool
	stalled := make(chan struct{})
	wdDone := make(chan struct{})
	steal := make([]int64, nslices)
	var swg sync.WaitGroup
	swg.Add(2)
	go func() {
		defer swg.Done()
		watchdog(r, &progress, &stop, stalled, wdDone)
	}()
	go func() {
		defer swg.Done()
		sampleSteal(base, d, steal, wdDone)
	}()
	var wg sync.WaitGroup
	for i, cr := range runs {
		if traced {
			cr.tr = newTracer(i)
		}
		wg.Add(1)
		go func(i int, cr *connRun) {
			defer wg.Done()
			drive(in, r, chk, i, cr, stream, base, d, &progress, &stop)
		}(i, cr)
	}
	wg.Wait()
	close(wdDone)
	swg.Wait()
	select {
	case <-stalled:
		return runs, steal, errors.New("stall: no reply for " + stallAfter.String() + "; goroutine dump above")
	default:
	}
	return runs, steal, nil
}

// sampleSteal records, for each slice of the window, the CPU time the
// hypervisor gave to other guests (steal, in clock ticks, from the kernel's
// /proc/stat). Without the file every slice reads 0.
func sampleSteal(base time.Time, d time.Duration, out []int64, done chan struct{}) {
	prev := hostSteal()
	for s := range out {
		t := time.NewTimer(time.Until(base.Add(d * time.Duration(s+1) / time.Duration(len(out)))))
		select {
		case <-t.C:
		case <-done:
			t.Stop()
			return
		}
		cur := hostSteal()
		out[s] = cur - prev
		prev = cur
	}
}

// hostSteal returns the system-wide steal time so far, in clock ticks.
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// stallAfter is how long the watchdog waits without a window whose every
// reply arrived.
const stallAfter = 5 * time.Second

// watchdog aborts the run when no window completes for stallAfter, after
// printing every goroutine's stack (the servers run in this process).
func watchdog(r *rig, progress *atomic.Uint64, stop *atomic.Bool, stalled, done chan struct{}) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	last, lastAt := progress.Load(), time.Now()
	for {
		select {
		case <-done:
			return
		case now := <-t.C:
			if p := progress.Load(); p != last {
				last, lastAt = p, now
				continue
			}
			if now.Sub(lastAt) < stallAfter {
				continue
			}
			buf := make([]byte, 16<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Printf("STALL: no reply for %s; goroutine dump:\n%s\n", stallAfter, buf)
			close(stalled)
			stop.Store(true)
			r.abortAll()
			return
		}
	}
}

// requestTimeout is every request's deadline; it is re-armed once per
// deadlineEvery so arming costs no per-request syscall.
const (
	requestTimeout = 2 * time.Second
	deadlineEvery  = 500 * time.Millisecond
)

// drive is one connection's closed loop: send a window of depth
// operations, flush, receive and check every reply, repeat.
func drive(in *input, r *rig, chk *checker, conn int, cr *connRun, stream uint64, base time.Time, d time.Duration, progress *atomic.Uint64, stop *atomic.Bool) {
	w := in.w
	deadline := base.Add(d)
	gen := newOpGen(w, stream, conn)
	pend := make([]pending, w.depth)
	for i := range pend {
		pend[i].scan = make([]scanEntry, 0, w.span)
	}
	tr := cr.tr
	var armed time.Time
	var seq uint64
	recording := tr != nil
	for !stop.Load() {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if now.Sub(armed) > deadlineEvery {
			cr.c.setDeadline(now.Add(requestTimeout))
			armed = now
		}
		sendSec := now.Unix()
		tw := tr.beginWindow(cr.windows, seq)
		n := len(cr.slices)
		sl := &cr.slices[min(int(now.Sub(base)*time.Duration(n)/d), n-1)]
		ok := window(in, chk, conn, cr, sl, gen, pend, sendSec)
		tr.end(spWindow, tw)
		cr.windows++
		if recording && ok {
			cr.recorded = cr.windows
		}
		seq += uint64(len(pend))
		if ok {
			progress.Add(1)
		}
		if recording && cr.c.recorded() > recordLimit {
			cr.c.stopRecording()
			recording = false
		}
		if !ok && !stop.Load() {
			// The reply stream is out of step: start a fresh connection.
			cr.c.ep.Abort()
			c, err := r.dial(false)
			if err != nil {
				cr.fail(chk, &pending{}, fmt.Errorf("redial: %w", err))
				return
			}
			cr.c, armed, recording = c, time.Time{}, false
		}
	}
	cr.c.stopRecording()
}

// window runs one batch window and reports whether the connection is still
// in step.
func window(in *input, chk *checker, conn int, cr *connRun, sl *slice, gen *opGen, pend []pending, sendSec int64) bool {
	keys, tr := in.keys, cr.tr
	ep := cr.c.ep
	for i := range pend {
		o := gen.next()
		tr.serve(i)
		chk.onSend(conn, o, sendSec, &pend[i])
		if tr != nil && cr.c.cl != nil && o.kind != opScan {
			t := tr.now()
			_ = cr.c.cl.Router().NodeOf(keys[o.key])
			tr.end(spRoute, t)
		}
		t := tr.now()
		err := sendOp(in, ep, o)
		tr.end(spSend, t)
		if err != nil {
			// The window's queued requests never leave; the rest were
			// never drawn.
			for j := 0; j <= i; j++ {
				cr.ops[pend[j].op.kind]++
				cr.fail(chk, &pend[j], fmt.Errorf("send: %w", err))
			}
			return false
		}
	}
	tf := tr.now()
	t0 := time.Now()
	err := ep.Flush()
	tr.end(spFlush, tf)
	if err != nil {
		for j := range pend {
			cr.ops[pend[j].op.kind]++
			cr.fail(chk, &pend[j], fmt.Errorf("flush: %w", err))
		}
		return false
	}
	for i := range pend {
		p := &pend[i]
		tr.serve(i)
		tr0 := tr.now()
		err := recvOne(cr, chk, p, sendSec)
		tr.end(spRecv, tr0)
		cr.ops[p.op.kind]++
		if err != nil {
			cr.fail(chk, p, err)
			if errors.Is(err, errDesync) {
				for j := i + 1; j < len(pend); j++ {
					cr.ops[pend[j].op.kind]++
					cr.fail(chk, &pend[j], errors.New("abandoned after a transport failure"))
				}
				return false
			}
			continue
		}
		sl.ops++
		ns := uint32(min(time.Since(t0), time.Duration(^uint32(0))))
		if p.op.kind.isRead() {
			sl.reads = append(sl.reads, ns)
		} else {
			sl.writes = append(sl.writes, ns)
		}
	}
	return true
}

// sendOp queues one operation on an endpoint.
func sendOp(in *input, ep endpoint, o op) error {
	w, keys := in.w, in.keys
	switch o.kind {
	case opGet:
		return ep.SendGet1(false, keys[o.key])
	case opSet:
		var exp int64
		if o.ttl {
			exp = w.ttl
		}
		return ep.SendStore("set", keys[o.key], 0, exp, valueOf(in.pattern, o.size, o.off), 0)
	case opDel:
		return ep.SendDelete(keys[o.key])
	default:
		return ep.SendMRange(keys[o.key], keys[o.key+uint32(w.span)], uint64(w.span))
	}
}

// recvOne receives and checks one reply. A transport or framing error is
// wrapped in errDesync; a server-side error line or a wrong answer is not.
func recvOne(cr *connRun, chk *checker, p *pending, sendSec int64) error {
	ep := cr.c.ep
	switch p.op.kind {
	case opGet:
		n, b, err := ep.RecvGetN()
		if err != nil {
			return transportErr(err)
		}
		return chk.checkGet(p, chk.expect(p, sendSec, time.Now().Unix()), n, b)
	case opSet:
		ok, err := ep.RecvStored()
		if err != nil {
			return transportErr(err)
		}
		if !ok {
			return fmt.Errorf("set %s: not stored", chk.keys[p.op.key])
		}
		chk.onStored(p, time.Now().Unix())
		return nil
	case opDel:
		ok, err := ep.RecvDeleted()
		if err != nil {
			return transportErr(err)
		}
		return chk.checkDelete(p, chk.expect(p, sendSec, time.Now().Unix()), ok)
	default:
		es, err := cr.c.recvScan()
		if err != nil {
			return transportErr(err)
		}
		return chk.checkScan(p, es)
	}
}

// transportErr classifies a receive error: a server error line or a
// degraded cluster reply leaves the stream in step, anything else does not.
func transportErr(err error) error {
	var se *server.ServerError
	if errors.As(err, &se) || server.IsDegraded(err) {
		return err
	}
	return fmt.Errorf("%w: %v", errDesync, err)
}

// readBack compares every owned key's bytes against the shadow after the
// window, fillWindow gets per flush. It returns the reads made, the
// failures, and the live key+value bytes confirmed.
func readBack(in *input, chk *checker, runs []*connRun) (reads, failed uint64, live int64, errs []string) {
	fail := func(err error) {
		failed++
		if len(errs) < maxErrs {
			errs = append(errs, err.Error())
		}
	}
	for conn, cr := range runs {
		c := cr.c
		var batch []uint32
		// readBatch reports whether the connection is still in step.
		readBatch := func() bool {
			now := time.Now()
			c.setDeadline(now.Add(10 * time.Second))
			for _, k := range batch {
				if err := c.ep.SendGet1(false, in.keys[k]); err != nil {
					fail(fmt.Errorf("read-back send: %w", err))
					return false
				}
			}
			if err := c.ep.Flush(); err != nil {
				fail(fmt.Errorf("read-back flush: %w", err))
				return false
			}
			for _, k := range batch {
				es, err := c.ep.RecvGet()
				reads++
				if err != nil {
					fail(fmt.Errorf("read-back %s: %w", in.keys[k], err))
					return false
				}
				n, err := chk.checkRead(k, es, now.Unix(), time.Now().Unix())
				if err != nil {
					fail(err)
				}
				live += int64(n)
			}
			batch = batch[:0]
			return true
		}
		for k := uint32(1); int(k) <= in.w.domain(); k++ {
			if in.w.owner(k) != conn {
				continue
			}
			batch = append(batch, k)
			if len(batch) == fillWindow && !readBatch() {
				batch = nil
				break
			}
		}
		if len(batch) > 0 {
			readBatch()
		}
	}
	return reads, failed, live, errs
}

// percentile returns the q-quantile of sorted samples, in microseconds.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1000
}
