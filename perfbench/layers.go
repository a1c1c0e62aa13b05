package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	ascylib "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/server"
)

// replay feeds each connection's operation stream again, window by window,
// through one in-process layer. Every goroutine regenerates its
// connection's stream from the seed and consumes exactly the windows the
// traced wire run consumed, so each layer sees the identical stream.
type replay struct {
	in      *input
	windows []int // per connection
	kb      [][]byte
	nodeOf  []uint8 // key -> cluster node
}

func newReplay(in *input, windows []int) *replay {
	rp := &replay{in: in, windows: windows, kb: make([][]byte, len(in.keys)), nodeOf: make([]uint8, len(in.keys))}
	router := cluster.NewRouter(in.w.nodes)
	for k := 1; k < len(in.keys); k++ {
		rp.kb[k] = []byte(in.keys[k])
		rp.nodeOf[k] = uint8(router.NodeOf(in.keys[k]))
	}
	return rp
}

// classTimes is per-class operation time and count.
type classTimes struct {
	ns   [numKinds]int64
	n    [numKinds]uint64
	keys uint64 // entries returned by scans
}

func (a *classTimes) add(b *classTimes) {
	for i := range a.ns {
		a.ns[i] += b.ns[i]
		a.n[i] += b.n[i]
	}
	a.keys += b.keys
}

func (a *classTimes) ops() uint64 {
	var n uint64
	for _, v := range a.n {
		n += v
	}
	return n
}

func (a *classTimes) total() int64 {
	var t int64
	for _, v := range a.ns {
		t += v
	}
	return t
}

// layerRun is what one layer's replay measured.
type layerRun struct {
	classTimes
	mallocs    uint64
	allocBytes uint64
}

// run replays every connection's stream concurrently, calling exec for each
// operation; exec returns the entries a scan produced. begin and end
// bracket each window (the store's Pin). The clock is read once per
// operation, so each operation is charged the time since the previous
// one's end, its window bracket included.
func (rp *replay) run(begin, end func(g int), exec func(g int, o op) int) layerRun {
	w := rp.in.w
	per := make([]classTimes, len(rp.windows))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	for g := range rp.windows {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := newOpGen(w, rp.in.seed, g)
			buf := make([]op, w.depth)
			var ct classTimes // local: neighbouring totals would share cache lines
			defer func() { per[g] = ct }()
			for win := 0; win < rp.windows[g]; win++ {
				for i := range buf {
					buf[i] = gen.next()
				}
				t := time.Now()
				if begin != nil {
					begin(g)
				}
				for i, o := range buf {
					n := exec(g, o)
					if i == len(buf)-1 && end != nil {
						end(g)
					}
					t2 := time.Now()
					ct.ns[o.kind] += int64(t2.Sub(t))
					ct.n[o.kind]++
					ct.keys += uint64(n)
					t = t2
				}
			}
		}(g)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	var lr layerRun
	for i := range per {
		lr.add(&per[i])
	}
	lr.mallocs = m1.Mallocs - m0.Mallocs
	lr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return lr
}

// value returns the bytes a set writes.
func (rp *replay) value(o op) []byte {
	return valueOf(rp.in.pattern, o.size, o.off)
}

func (rp *replay) exptime(o op) int64 {
	if o.ttl {
		return rp.in.w.ttl
	}
	return 0
}

// coreShard routes a key index to a core shard.
func coreShard(k uint32, shards int) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15 >> 32) % uint64(shards))
}

// coreResult adds the paper's event counts to a core replay.
type coreResult struct {
	layerRun
	ctx perf.Ctx
}

// runCore replays through the core structures' instrumented
// Search/Insert/Remove, one perf.Ctx per goroutine; a scan is a native
// Range on every node, bounded by the span.
func (rp *replay) runCore() (coreResult, error) {
	w := rp.in.w
	sets := make([][]core.Instrumented, w.nodes)
	ords := make([][]core.Ordered, w.nodes)
	for n := range sets {
		for sh := 0; sh < w.shards; sh++ {
			s, err := core.New(w.algo, core.Capacity((1<<16)/w.shards))
			if err != nil {
				return coreResult{}, err
			}
			is, ok := s.(core.Instrumented)
			if !ok {
				return coreResult{}, fmt.Errorf("core: %s is not instrumented", w.algo)
			}
			sets[n] = append(sets[n], is)
			if w.ordered {
				o, _ := core.OrderedOf(s)
				ords[n] = append(ords[n], o)
			}
		}
	}
	for _, k := range rp.in.pre {
		sets[rp.nodeOf[k]][coreShard(k, w.shards)].Insert(core.Key(k), core.Value(k))
	}
	// One padded context per goroutine, so that counting shares no cache
	// line between goroutines.
	type paddedCtx struct {
		perf.Ctx
		_ [64]byte
	}
	ctxs := make([]*paddedCtx, len(rp.windows))
	for g := range ctxs {
		ctxs[g] = new(paddedCtx)
	}
	lr := rp.run(nil, nil, func(g int, o op) int {
		ctx := &ctxs[g].Ctx
		ctx.Ops++
		k := core.Key(o.key)
		s := sets[rp.nodeOf[o.key]][coreShard(o.key, w.shards)]
		switch o.kind {
		case opGet:
			s.SearchCtx(ctx, k)
		case opSet:
			ctx.Updates++
			if s.InsertCtx(ctx, k, core.Value(o.off)) {
				ctx.SuccUpdates++
			}
		case opDel:
			ctx.Updates++
			if _, ok := s.RemoveCtx(ctx, k); ok {
				ctx.SuccUpdates++
			}
		case opScan:
			total := 0
			for n := range ords {
				got := 0
				ords[n][0].Range(k, k+core.Key(w.span), func(core.Key, core.Value) bool {
					got++
					return got < w.span
				})
				total += got
			}
			return total
		}
		return 0
	})
	res := coreResult{layerRun: lr}
	for i := range ctxs {
		res.ctx.Merge(&ctxs[i].Ctx)
	}
	return res, nil
}

// runFacade replays through the string-keyed facade the store is built
// on: GetBytes, UpdateBytes and the ordered shard scans.
func (rp *replay) runFacade() (layerRun, error) {
	w := rp.in.w
	maps := make([]*ascylib.ShardedStringMap[[]byte], w.nodes)
	for n := range maps {
		var err error
		if w.ordered {
			maps[n], err = ascylib.NewOrderedShardedStringMap[[]byte](w.algo, w.shards, ascylib.Capacity(1<<16))
		} else {
			maps[n], err = ascylib.NewShardedStringMap[[]byte](w.algo, w.shards, ascylib.Capacity(1<<16))
		}
		if err != nil {
			return layerRun{}, err
		}
	}
	for i, k := range rp.in.pre {
		maps[rp.nodeOf[k]].Put(rp.in.keys[k], valueOf(rp.in.pattern, rp.in.size[i], rp.in.off[i]))
	}
	type state struct {
		cur []byte
		set func(old []byte, present bool) ([]byte, bool)
	}
	del := func(old []byte, present bool) ([]byte, bool) { return old, false }
	states := make([]*state, len(rp.windows))
	for g := range states {
		st := &state{}
		st.set = func([]byte, bool) ([]byte, bool) { return st.cur, true }
		states[g] = st
	}
	return rp.run(nil, nil, func(g int, o op) int {
		m := maps[rp.nodeOf[o.key]]
		kb := rp.kb[o.key]
		switch o.kind {
		case opGet:
			m.GetBytes(kb)
		case opSet:
			st := states[g]
			st.cur = rp.value(o)
			m.UpdateBytes(kb, st.set)
		case opDel:
			m.UpdateBytes(kb, del)
		case opScan:
			hi := rp.kb[o.key+uint32(w.span)]
			total := 0
			for _, m := range maps {
				got := 0
				slo, shi := m.OrderedShardSpan(kb, hi)
				for sh := slo; sh <= shi && got < w.span; sh++ {
					got += m.ShardRangeBytes(sh, kb, hi, w.span-got, func(string, []byte) bool { return true })
				}
				total += got
			}
			return total
		}
		return 0
	}), nil
}

// storeResult adds the value-pool counters to a store replay.
type storeResult struct {
	layerRun
	allocs, reused uint64
}

// runStore replays through server.Store on every node, one Pin per node
// per window as the server pins per batch.
func (rp *replay) runStore() (storeResult, error) {
	w := rp.in.w
	stores := make([]*server.Store, w.nodes)
	for n := range stores {
		st, err := server.NewStore(w.algo, 0, true, w.shards, w.ordered)
		if err != nil {
			return storeResult{}, err
		}
		stores[n] = st
	}
	for i, k := range rp.in.pre {
		st := stores[rp.nodeOf[k]]
		p := st.Pin()
		st.Set(p, rp.kb[k], 0, 0, valueOf(rp.in.pattern, rp.in.size[i], rp.in.off[i]))
		p.Unpin()
	}
	var b0 [2]uint64
	for _, st := range stores {
		bs := st.BufStats()
		b0[0] += bs.Allocs
		b0[1] += bs.Reused
	}
	pins := make([][]server.Pin, len(rp.windows))
	for g := range pins {
		pins[g] = make([]server.Pin, w.nodes)
	}
	begin := func(g int) {
		for n, st := range stores {
			pins[g][n] = st.Pin()
		}
	}
	end := func(g int) {
		for _, p := range pins[g] {
			p.Unpin()
		}
	}
	lr := rp.run(begin, end, func(g int, o op) int {
		n := rp.nodeOf[o.key]
		st, p, kb := stores[n], pins[g][n], rp.kb[o.key]
		switch o.kind {
		case opGet:
			st.Get(p, kb)
		case opSet:
			st.Set(p, kb, 0, rp.exptime(o), rp.value(o))
		case opDel:
			st.Delete(p, kb)
		case opScan:
			hi := rp.kb[o.key+uint32(w.span)]
			total := 0
			for n, st := range stores {
				total += st.RangeScan(pins[g][n], kb, hi, w.span, func(string, server.Item) bool { return true })
			}
			return total
		}
		return 0
	})
	res := storeResult{layerRun: lr}
	for _, st := range stores {
		bs := st.BufStats()
		res.allocs += bs.Allocs
		res.reused += bs.Reused
	}
	res.allocs -= b0[0]
	res.reused -= b0[1]
	return res, nil
}

// protoResult is the protocol parser's replay.
type protoResult struct {
	ns             int64
	cmds, batches  uint64
	bytes, mallocs uint64
}

// runProtocol parses the request bytes the traced wire run recorded, one
// flushed window at a time, with ReadBatchInto.
func runProtocol(runs []*connRun) (protoResult, error) {
	per := make([]protoResult, len(runs))
	errs := make([]error, len(runs))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	for g, cr := range runs {
		wg.Add(1)
		go func(g int, cr *connRun) {
			defer wg.Done()
			var pr protoResult // local, as in replay.run
			defer func() { per[g] = pr }()
			br := bufio.NewReaderSize(nil, 64<<10)
			var b server.Batch
			for _, bc := range cr.c.nets {
				if bc.rec == nil {
					continue
				}
				rec := bc.rec
				start := 0
				for _, end := range rec.chunks {
					chunk := rec.out[start:end]
					start = end
					t := time.Now()
					br.Reset(bytes.NewReader(chunk))
					for {
						n, err := server.ReadBatchInto(br, server.DefaultMaxItemSize, server.DefaultMaxBatch, &b)
						if err == io.EOF {
							break
						}
						if err != nil {
							errs[g] = err
							return
						}
						pr.cmds += uint64(n)
						pr.batches++
					}
					pr.ns += int64(time.Since(t))
					pr.bytes += uint64(len(chunk))
				}
			}
		}(g, cr)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	var res protoResult
	for i := range per {
		res.ns += per[i].ns
		res.cmds += per[i].cmds
		res.batches += per[i].batches
		res.bytes += per[i].bytes
	}
	res.mallocs = m1.Mallocs - m0.Mallocs
	return res, errors.Join(errs...)
}

// replayConn serves recorded reply bytes and discards writes.
type replayConn struct {
	net.Conn // nil: only Read, Write and Close are used
	r        *bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *replayConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *replayConn) Close() error                { return nil }

// clientResult is the generator's own replay.
type clientResult struct {
	ops, mallocs uint64
}

// runClient replays the recorded windows through a fresh endpoint whose
// transports serve the recorded replies, counting the generator's own
// allocations.
func runClient(in *input, runs []*connRun) (clientResult, error) {
	w := in.w
	eps := make([]*conn, len(runs))
	for g, cr := range runs {
		var recs []*recorder
		for _, bc := range cr.c.nets {
			if bc.rec != nil {
				recs = append(recs, bc.rec)
			}
		}
		if len(recs) != w.nodes {
			return clientResult{}, fmt.Errorf("client replay: %d recorded transports, want %d", len(recs), w.nodes)
		}
		dialRec := func(i int) *server.Client {
			return server.NewClientConn(&replayConn{r: bytes.NewReader(recs[i].in)})
		}
		if w.nodes == 1 {
			sc := dialRec(0)
			eps[g] = &conn{ep: sc, recvScan: sc.RecvGet}
			continue
		}
		addrs := make([]string, w.nodes)
		for i := range addrs {
			addrs[i] = strconv.Itoa(i)
		}
		cl, err := cluster.DialOptions(cluster.Options{
			NodeDialer: func(addr string, _ time.Duration) (*server.Client, error) {
				i, _ := strconv.Atoi(addr)
				return dialRec(i), nil
			},
		}, addrs...)
		if err != nil {
			return clientResult{}, err
		}
		eps[g] = &conn{ep: cl, recvScan: cl.RecvMRange, cl: cl}
	}
	var res clientResult
	errs := make([]error, len(runs))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	for g, cr := range runs {
		wg.Add(1)
		go func(g int, cr *connRun) {
			defer wg.Done()
			c := eps[g]
			gen := newOpGen(w, in.seed, g)
			buf := make([]op, w.depth)
			for win := 0; win < cr.recorded; win++ {
				for i := range buf {
					o := gen.next()
					buf[i] = o
					if err := sendOp(in, c.ep, o); err != nil {
						errs[g] = err
						return
					}
				}
				c.ep.Flush()
				for _, o := range buf {
					var err error
					switch o.kind {
					case opGet:
						_, _, err = c.ep.RecvGetN()
					case opSet:
						_, err = c.ep.RecvStored()
					case opDel:
						_, err = c.ep.RecvDeleted()
					default:
						_, err = c.recvScan()
					}
					if err != nil {
						errs[g] = fmt.Errorf("client replay window %d: %w", win, err)
						return
					}
				}
			}
		}(g, cr)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	for _, cr := range runs {
		res.ops += uint64(cr.recorded * w.depth)
	}
	res.mallocs = m1.Mallocs - m0.Mallocs
	for _, c := range eps {
		c.ep.Close()
	}
	return res, errors.Join(errs...)
}

// snapResult is the snapshot layer: the preload written and loaded back.
type snapResult struct {
	loadNs, items, bytes int64
}

// runSnapshot loads the preload snapshot into a fresh store.
func runSnapshot(in *input, tr *tracer) (snapResult, error) {
	if in.snap == "" {
		if err := in.writeSnapshot(tr); err != nil {
			return snapResult{}, err
		}
	}
	fi, err := os.Stat(in.snap)
	if err != nil {
		return snapResult{}, err
	}
	f, err := os.Open(in.snap)
	if err != nil {
		return snapResult{}, err
	}
	defer f.Close()
	st, err := server.NewStore(in.w.algo, 0, true, in.w.shards, in.w.ordered)
	if err != nil {
		return snapResult{}, err
	}
	t0 := tr.now()
	lr, err := st.LoadFrom(bufio.NewReaderSize(f, 1<<20))
	tr.end(spSnapLoad, t0)
	if err != nil {
		return snapResult{}, err
	}
	return snapResult{loadNs: tr.total[spSnapLoad], items: int64(lr.Loaded), bytes: fi.Size()}, nil
}
