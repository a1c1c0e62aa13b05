// Command perfbench is the repository's benchmark: it boots fresh
// in-process ascyserve servers, drives one named workload closed-loop
// through the public client, checks every reply, and prints every metric by
// name with its unit. With --trace 1 it adds a traced run and in-process
// replays of the same operation stream through each layer, and prints the
// per-layer metrics instead.
//
//	go build -o perfbench . && ./perfbench --workload rr-get --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is 0 only when every check passed.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/perf"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     uint64 // samples or operations behind the value
}

// outcome is what one invocation reports.
type outcome struct {
	attempted, failed uint64
	errs              []string
	metrics           []metric
}

func (o *outcome) add(name string, value float64, unit string, n uint64) {
	o.metrics = append(o.metrics, metric{name, value, unit, n})
}

func (o *outcome) account(p *phase) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.errs = append(o.errs, p.errs...)
}

// workDir, relative to the checkout the command runs in, holds the snapshot
// file while a run lasts and the span logs after it.
const workDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: rr-get, scan-cluster or set-storm")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "measured window of each run, seconds")
	trace := fs.Int("trace", 0, "1: print the per-layer metrics of a traced run instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	in := newInput(w, *seed, dir)
	d := time.Duration(*seconds) * time.Second
	var out outcome
	if *trace == 0 {
		err = untraced(in, d, &out)
	} else {
		spans := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		err = traced(in, d, spans, &out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if out.attempted == 0 {
			return 1
		}
		out.failed = max(out.failed, 1)
		out.errs = append(out.errs, err.Error())
	}
	return report(w, &out)
}

// phase is one measured window on freshly booted servers.
type phase struct {
	setups []float64 // seconds
	runs   []*connRun
	tr     tracer // merged spans and totals of a traced phase

	ops               uint64
	opsByKind         [numKinds]uint64
	attempted, failed uint64
	errs              []string
	// Medians over the phase's windows of what each measured on its clean
	// slices (see cleanStats), and the samples behind them.
	throughput, p50, p99, readP99, writeP99 float64
	nAll, nReads, nWrites                   uint64
	windows                                 []windowStats
	cleanSlices, allSlices                  int
	stealShare                              float64 // of the CPU time in the windows
	memPeak, bytesPerUserByte               float64 // of the first server set
	liveBytes                               int64
	stats0, stats1                          []uint64
	cpu0, cpu1                              cpuTimes
	waitNs                                  int64 // generator time blocked reading replies
	mem0, mem1                              runtime.MemStats
	nodeReqs                                []uint64
}

var serverStats = []string{"batches", "cmd_batched", "bytes_read", "bytes_written"}

// runPhase sets up nsetups times and measures a window of d/instances on
// each of the last instances set-ups, each on its own freshly loaded
// servers, reading every owned key back after each window. Spreading the
// window over independently built servers averages out what one build fixes
// for its whole life, such as a skip list's random tower heights.
func runPhase(in *input, d time.Duration, nsetups, instances int, traced bool) (*phase, error) {
	p := &phase{}
	for i := 0; i < nsetups; i++ {
		runtime.GC()
		r, took, err := setup(in)
		if err != nil {
			return p, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, took.Seconds())
		if inst := i - (nsetups - instances); inst >= 0 {
			err = p.measureOn(in, r, d/time.Duration(instances), numSlices/instances, uint64(inst), traced)
		}
		// Teardown errors cannot change what was measured.
		r.close()
		if err != nil {
			return p, err
		}
	}
	p.combine(d.Seconds())
	return p, nil
}

// measureOn measures one window of d, cut into nslices slices, on the
// servers of r, driving operation stream number instance, then reads every
// owned key back.
func (p *phase) measureOn(in *input, r *rig, d time.Duration, nslices int, instance uint64, traced bool) error {
	runtime.GC()
	chk := newChecker(in.w, in.keys, in.pattern, in.pre, in.size, in.off)
	p.stats0 = r.stats(serverStats...)
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = processCPU()
	runs, steal, merr := measure(in, r, chk, d, nslices, streamSeed(in.seed, instance), traced)
	defer func() {
		for _, cr := range runs {
			cr.c.ep.Close()
		}
	}()
	p.cpu1 = processCPU()
	runtime.ReadMemStats(&p.mem1)
	p.stats1 = r.stats(serverStats...)
	p.runs = runs
	for _, cr := range runs {
		for k, n := range cr.ops {
			p.opsByKind[k] += n
			p.ops += n
			p.attempted += n
		}
		p.failed += cr.failed
		p.errs = append(p.errs, cr.errs...)
		if cr.tr != nil {
			p.tr.merge(cr.tr)
			for _, bc := range cr.c.nets {
				p.waitNs += bc.waitNs
			}
		}
		if cr.c.cl != nil {
			p.nodeReqs = cr.c.cl.NodeReqs()
		}
	}
	if merr != nil {
		return merr
	}
	reads, failed, live, errs := readBack(in, chk, runs)
	p.attempted += reads
	p.failed += failed
	p.errs = append(p.errs, errs...)
	// Memory is read on the first server set, so that it describes one set
	// serving, not the sets that come after it.
	if instance == 0 {
		p.memPeak = peakRSSMiB()
	}
	p.windows = append(p.windows, cleanStats(runs, steal, d.Seconds()/float64(nslices)))
	if instance > 0 {
		return nil
	}
	// Heap per user byte: drop the generator's own tables first, so the
	// heap left is the servers' (the key table is rebuilt afterwards).
	chk = nil
	in.keys = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	in.keys = keyTable(in.w.domain())
	if live > 0 {
		p.bytesPerUserByte = float64(ms.HeapInuse) / float64(live)
	}
	p.liveBytes = live
	return nil
}

// windowStats is what one window measured on its clean slices.
type windowStats struct {
	thr, p50, p99, readP99, writeP99 float64
	nAll, nReads, nWrites            uint64
	clean, slices                    int
	stolen                           int64 // clock ticks
}

// cleanStats pools the samples of one window's clean slices and releases
// every slice's samples. A slice is clean when the hypervisor stole no CPU
// time in it or in either neighbour (steal is accounted at the next clock
// tick); when fewer than a quarter are clean, the least-stolen quarter is
// used. The host this runs on loses its CPUs to other tenants, in bursts
// or for long stretches, and one stolen 10 ms tick stalls every request in
// flight, so a stolen slice measures the neighbours, not the system. A
// change that slows the system slows every slice, so it moves the result
// in full.
func cleanStats(runs []*connRun, steal []int64, sliceSec float64) windowStats {
	n := len(steal)
	near := make([]int64, n)
	order := make([]int, n)
	ws := windowStats{slices: n}
	for s := range steal {
		ws.stolen += steal[s]
		for t := max(s-1, 0); t <= min(s+1, n-1); t++ {
			near[s] += steal[t]
		}
		if near[s] == 0 {
			ws.clean++
		}
		order[s] = s
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(near[a], near[b]) })
	ws.clean = max(ws.clean, n/4)
	var ops uint64
	var reads, writes []uint32
	for _, s := range order[:ws.clean] {
		for _, cr := range runs {
			ops += cr.slices[s].ops
			reads = append(reads, cr.slices[s].reads...)
			writes = append(writes, cr.slices[s].writes...)
		}
	}
	for _, cr := range runs {
		for s := range cr.slices {
			cr.slices[s].reads, cr.slices[s].writes = nil, nil
		}
	}
	all := append(slices.Clone(reads), writes...)
	slices.Sort(all)
	slices.Sort(reads)
	slices.Sort(writes)
	ws.thr = float64(ops) / (sliceSec * float64(ws.clean))
	ws.p50, ws.p99 = percentile(all, 0.50), percentile(all, 0.99)
	ws.readP99, ws.writeP99 = percentile(reads, 0.99), percentile(writes, 0.99)
	ws.nAll, ws.nReads, ws.nWrites = uint64(len(all)), uint64(len(reads)), uint64(len(writes))
	return ws
}

// combine takes the median over the phase's windows (one per server set)
// of each rate and latency; seconds is the phase's total window time.
func (p *phase) combine(seconds float64) {
	var thr, p50, p99, rp99, wp99 []float64
	var stolen int64
	for _, ws := range p.windows {
		thr = append(thr, ws.thr)
		p50 = append(p50, ws.p50)
		p99 = append(p99, ws.p99)
		rp99 = append(rp99, ws.readP99)
		wp99 = append(wp99, ws.writeP99)
		p.nAll += ws.nAll
		p.nReads += ws.nReads
		p.nWrites += ws.nWrites
		p.cleanSlices += ws.clean
		p.allSlices += ws.slices
		stolen += ws.stolen
	}
	p.stealShare = float64(stolen) / (clockTicks * seconds * float64(runtime.NumCPU()))
	p.throughput, p.p50, p.p99 = median(thr), median(p50), median(p99)
	p.readP99, p.writeP99 = median(rp99), median(wp99)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// quantile returns the q-quantile of v, interpolating between ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// e2e returns the phase's end-to-end metrics.
func (p *phase) e2e() []metric {
	success := 0.0
	if p.attempted > 0 {
		success = float64(p.attempted-p.failed) / float64(p.attempted)
	}
	return []metric{
		{"throughput_ops_s", p.throughput, "ops/s", p.ops},
		{"p50_us", p.p50, "us", p.nAll},
		{"p99_us", p.p99, "us", p.nAll},
		{"read_p99_us", p.readP99, "us", p.nReads},
		{"write_p99_us", p.writeP99, "us", p.nWrites},
		{"success_ratio", success, "ratio", p.attempted},
		{"setup_s", median(p.setups), "s", uint64(len(p.setups))},
		{"mem_peak_mib", p.memPeak, "MiB", 1},
		{"bytes_per_user_byte", p.bytesPerUserByte, "ratio", uint64(p.liveBytes)},
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func untraced(in *input, d time.Duration, out *outcome) error {
	if in.w.warmBoot {
		if err := in.writeSnapshot(nil); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	p, err := runPhase(in, d, in.w.setups, in.w.instances, false)
	out.account(p)
	if err != nil {
		return err
	}
	out.metrics = append(out.metrics, p.e2e()...)
	fmt.Printf("%s: host stole %.1f%% of the CPU time in the window; rates and latencies come from %d clean slices of %d\n",
		in.w.name, 100*p.stealShare, p.cleanSlices, p.allSlices)
	if in.w.instances > 1 {
		fmt.Printf("%s: the window was spread over %d independently set-up server sets\n", in.w.name, in.w.instances)
	}
	return nil
}

// traced measures an untraced and a traced window on fresh servers, then
// replays the traced window's operation stream through each in-process
// layer, and reports the per-layer metrics and the tracing overhead.
func traced(in *input, d time.Duration, spanPath string, out *outcome) error {
	w := in.w
	snapTr := newTracer(1 << 10)
	snapTr.keep = true // the snapshot spans are few: keep them all, as roots
	if err := in.writeSnapshot(snapTr); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	plain, err := runPhase(in, d, 1, 1, false)
	out.account(plain)
	if err != nil {
		return err
	}
	tp, err := runPhase(in, d, 1, 1, true)
	out.account(tp)
	if err != nil {
		return err
	}
	ops := float64(tp.ops)
	perOp := func(v int64) float64 { return float64(v) / ops }

	windows := make([]int, len(tp.runs))
	for i, cr := range tp.runs {
		windows[i] = cr.windows
	}
	rp := newReplay(in, windows)
	cr, err := rp.runCore()
	if err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	fr, err := rp.runFacade()
	if err != nil {
		return fmt.Errorf("facade replay: %w", err)
	}
	sr, err := rp.runStore()
	if err != nil {
		return fmt.Errorf("store replay: %w", err)
	}
	pr, err := runProtocol(tp.runs)
	if err != nil {
		return fmt.Errorf("protocol replay: %w", err)
	}
	cl, err := runClient(in, tp.runs)
	if err != nil {
		return fmt.Errorf("client replay: %w", err)
	}
	snap, err := runSnapshot(in, snapTr)
	if err != nil {
		return fmt.Errorf("snapshot replay: %w", err)
	}
	for i, c := range cr.n {
		if c != tp.opsByKind[i] || fr.n[i] != c || sr.n[i] != c {
			return fmt.Errorf("replay consumed %d/%d/%d %s ops (core/facade/store), the wire run %d",
				c, fr.n[i], sr.n[i], kindNames[i], tp.opsByKind[i])
		}
	}

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsOp := func(lr *layerRun) float64 { return ratio(float64(lr.total()), float64(lr.ops())) }
	ctx := &cr.ctx
	coreOps := float64(ctx.Ops)
	casAll := ctx.Count(perf.EvCAS) + ctx.Count(perf.EvCASFail)

	// core
	out.add("core.ns_per_op", nsOp(&cr.layerRun), "ns", cr.ops())
	out.add("core.allocs_per_op", ratio(float64(cr.mallocs), coreOps), "count", cr.ops())
	out.add("core.coherence_per_op", ctx.CoherencePerOp(), "count", cr.ops())
	out.add("core.cas_fail_ratio", ratio(float64(ctx.Count(perf.EvCASFail)), float64(casAll)), "ratio", casAll)
	out.add("core.restarts_per_op", ratio(float64(ctx.Count(perf.EvRestart)+ctx.Count(perf.EvParseRestart)), coreOps), "count", cr.ops())
	out.add("core.nodes_per_op", ctx.PerOp(perf.EvTraverse), "count", cr.ops())
	out.add("core.waits_per_op", ctx.PerOp(perf.EvWait), "count", cr.ops())
	// facade
	out.add("facade.ns_per_op", nsOp(&fr), "ns", fr.ops())
	out.add("facade.self_ns_per_op", nsOp(&fr)-nsOp(&cr.layerRun), "ns", fr.ops())
	out.add("facade.allocs_per_op", ratio(float64(fr.mallocs), float64(fr.ops())), "count", fr.ops())
	out.add("facade.scan_ns_per_key", ratio(float64(fr.ns[opScan]), float64(fr.keys)), "ns", fr.keys)
	// store
	out.add("store.get_ns", ratio(float64(sr.ns[opGet]), float64(sr.n[opGet])), "ns", sr.n[opGet])
	out.add("store.set_ns", ratio(float64(sr.ns[opSet]), float64(sr.n[opSet])), "ns", sr.n[opSet])
	out.add("store.delete_ns", ratio(float64(sr.ns[opDel]), float64(sr.n[opDel])), "ns", sr.n[opDel])
	out.add("store.scan_ns_per_key", ratio(float64(sr.ns[opScan]), float64(sr.keys)), "ns", sr.keys)
	out.add("store.self_ns_per_op", nsOp(&sr.layerRun)-nsOp(&fr), "ns", sr.ops())
	out.add("store.allocs_per_op", ratio(float64(sr.mallocs), float64(sr.ops())), "count", sr.ops())
	out.add("store.bytes_per_op", ratio(float64(sr.allocBytes), float64(sr.ops())), "B", sr.ops())
	out.add("store.value_reuse_ratio", ratio(float64(sr.reused), float64(sr.allocs)), "ratio", sr.allocs)
	// protocol
	out.add("protocol.ns_per_cmd", ratio(float64(pr.ns), float64(pr.cmds)), "ns", pr.cmds)
	out.add("protocol.allocs_per_cmd", ratio(float64(pr.mallocs), float64(pr.cmds)), "count", pr.cmds)
	out.add("protocol.cmds_per_batch", ratio(float64(pr.cmds), float64(pr.batches)), "count", pr.batches)
	out.add("protocol.bytes_per_cmd", ratio(float64(pr.bytes), float64(pr.cmds)), "B", pr.cmds)
	// server
	ds := make([]float64, len(serverStats))
	for i := range ds {
		ds[i] = float64(tp.stats1[i] - tp.stats0[i])
	}
	proc := tp.cpu1.sub(tp.cpu0)
	out.add("server.batch_depth", ratio(ds[1], ds[0]), "count", uint64(ds[0]))
	out.add("server.bytes_in_per_op", ds[2]/ops, "B", tp.ops)
	out.add("server.bytes_out_per_op", ds[3]/ops, "B", tp.ops)
	// The generator is busy inside its calls except while blocked on a reply.
	tt := &tp.tr
	genBusy := tt.total[spSend] + tt.total[spFlush] + tt.total[spRecv] - tp.waitNs
	out.add("server.cpu_ns_per_op", perOp(proc.user+proc.sys-genBusy), "ns", tp.ops)
	out.add("server.sys_ns_per_op", perOp(proc.sys), "ns", tp.ops)
	// client
	out.add("client.send_ns_per_op", perOp(tt.total[spSend]+tt.total[spFlush]), "ns", tp.ops)
	out.add("client.recv_ns_per_op", perOp(tt.total[spRecv]), "ns", tp.ops)
	out.add("client.ops_per_flush", ratio(ops, float64(tt.count[spFlush])), "count", uint64(tt.count[spFlush]))
	out.add("client.allocs_per_op", ratio(float64(cl.mallocs), float64(cl.ops)), "count", cl.ops)
	// cluster: only scan-cluster crosses it; elsewhere the layer is absent and reads 0
	var route, csend, crecv, imbalance, fanout float64
	if w.nodes > 1 {
		route = ratio(float64(tt.total[spRoute]), float64(tt.count[spRoute]))
		csend = perOp(tt.total[spSend] + tt.total[spFlush])
		crecv = perOp(tt.total[spRecv])
		var sum, mx float64
		for _, v := range tp.nodeReqs {
			sum += float64(v)
			mx = max(mx, float64(v))
		}
		imbalance = ratio(mx, sum/float64(len(tp.nodeReqs)))
		scans := float64(tp.opsByKind[opScan])
		fanout = ratio(sum-(ops-scans), scans)
	}
	out.add("cluster.route_ns_per_key", route, "ns", uint64(tt.count[spRoute]))
	out.add("cluster.send_ns_per_op", csend, "ns", tp.ops)
	out.add("cluster.recv_ns_per_op", crecv, "ns", tp.ops)
	out.add("cluster.node_imbalance", imbalance, "ratio", tp.ops)
	out.add("cluster.scan_fanout", fanout, "count", tp.opsByKind[opScan])
	// snapshot
	out.add("snapshot.load_ns_per_item", ratio(float64(snap.loadNs), float64(snap.items)), "ns", uint64(snap.items))
	out.add("snapshot.bytes_per_item", ratio(float64(snap.bytes), float64(snap.items)), "B", uint64(snap.items))
	// runtime, over the traced window
	out.add("runtime.allocs_per_op", ratio(float64(tp.mem1.Mallocs-tp.mem0.Mallocs), ops), "count", tp.ops)
	out.add("runtime.gc_cycles", float64(tp.mem1.NumGC-tp.mem0.NumGC), "count", 1)
	out.add("runtime.gc_pause_us", float64(tp.mem1.PauseTotalNs-tp.mem0.PauseTotalNs)/1000, "us", uint64(tp.mem1.NumGC-tp.mem0.NumGC))
	out.add("runtime.heap_inuse_mib", float64(tp.mem1.HeapInuse)/(1<<20), "MiB", 1)
	// tracing overhead: traced over untraced, minus one
	pe, te := plain.e2e(), tp.e2e()
	for i := range pe {
		out.add("trace_overhead."+pe[i].name, ratio(te[i].value, pe[i].value)-1, "ratio", te[i].n)
	}

	spans := append(tt.spans, snapTr.spans...)
	if err := writeSpans(spanPath, spans); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	fmt.Printf("%s: %d spans written to %s\n", w.name, len(spans), spanPath)
	return nil
}

// report prints every metric, then the JSON result line, and returns the
// exit code.
func report(w *workload, o *outcome) int {
	correct := o.failed == 0 && o.attempted > 0
	for _, e := range o.errs {
		fmt.Printf("%s: CHECK FAILED: %s\n", w.name, e)
	}
	fmt.Printf("%s: attempted %d, failed %d, fail_ratio %.6g\n", w.name, o.attempted, o.failed,
		float64(o.failed)/float64(max(o.attempted, 1)))
	for _, m := range o.metrics {
		fmt.Printf("%s: %-34s %14.6g %-6s (n=%d)\n", w.name, m.name, m.value, m.unit, m.n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, max(o.attempted, 1), o.failed, map[string]val{}}
	for _, m := range o.metrics {
		res.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}
