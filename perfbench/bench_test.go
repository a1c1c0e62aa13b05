package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/server"
)

// small returns a copy of w over a smaller keyspace with fewer set-ups, for
// quick runs; everything else is the workload as defined.
func small(w *workload) *workload {
	c := *w
	c.keys = 2048
	c.setups = min(c.setups, 3)
	c.instances = min(c.instances, 2)
	return &c
}

// captureConn collects every byte written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// encodeStream returns the wire bytes of the first n operations of one
// connection's stream.
func encodeStream(t *testing.T, w *workload, seed uint64, conn, n int) []byte {
	in := newInput(w, seed, "")
	cc := &captureConn{}
	c := server.NewClientConn(cc)
	gen := newOpGen(w, seed, conn)
	for i := 0; i < n; i++ {
		if err := sendOp(in, c, gen.next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return cc.buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		for conn := 0; conn < w.conns; conn++ {
			a := encodeStream(t, w, 7, conn, 20000)
			b := encodeStream(t, w, 7, conn, 20000)
			if !bytes.Equal(a, b) {
				t.Errorf("%s conn %d: seed 7 gave two different streams", w.name, conn)
			}
			if c := encodeStream(t, w, 8, conn, 20000); bytes.Equal(a, c) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", w.name, conn)
			}
		}
	}
}

func TestWritesStayOnOwnedKeys(t *testing.T) {
	for _, w := range workloads {
		for conn := 0; conn < w.conns; conn++ {
			gen := newOpGen(w, 3, conn)
			for i := 0; i < 50000; i++ {
				o := gen.next()
				if o.key < 1 || int(o.key) > w.domain() {
					t.Fatalf("%s: key %d outside [1, %d]", w.name, o.key, w.domain())
				}
				if (o.kind == opSet || o.kind == opDel) && w.owner(o.key) != conn {
					t.Fatalf("%s: conn %d writes key %d owned by %d", w.name, conn, o.key, w.owner(o.key))
				}
			}
		}
	}
}

func TestReplayConsumesWireCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			in := newInput(w, 5, t.TempDir())
			if w.warmBoot {
				if err := in.writeSnapshot(nil); err != nil {
					t.Fatal(err)
				}
			}
			p, err := runPhase(in, 300*time.Millisecond, 1, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 {
				t.Fatalf("%d failed checks: %v", p.failed, p.errs)
			}
			windows := make([]int, len(p.runs))
			for i, cr := range p.runs {
				windows[i] = cr.windows
			}
			rp := newReplay(in, windows)
			cr, err := rp.runCore()
			if err != nil {
				t.Fatal(err)
			}
			sr, err := rp.runStore()
			if err != nil {
				t.Fatal(err)
			}
			for k := opKind(0); k < numKinds; k++ {
				if cr.n[k] != p.opsByKind[k] || sr.n[k] != p.opsByKind[k] {
					t.Errorf("%s: core replayed %d, store %d, wire ran %d", kindNames[k], cr.n[k], sr.n[k], p.opsByKind[k])
				}
			}
		})
	}
}

// declared reads the metric lists of the repository's BENCHMARK.json.
func declared(t *testing.T) (e2e, layers map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestSmokeEveryMetric runs each workload briefly in both modes: every
// check must pass and every declared metric must come out finite, with
// its declared unit, and nothing undeclared.
func TestSmokeEveryMetric(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		for trace, want := range []map[string]string{e2e, layers} {
			w := small(w)
			in := newInput(w, 11, t.TempDir())
			var out outcome
			var err error
			if trace == 0 {
				err = untraced(in, 500*time.Millisecond, &out)
			} else {
				err = traced(in, 500*time.Millisecond, in.dir+"/spans.jsonl", &out)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%d: %d of %d failed: %v", w.name, trace, out.failed, out.attempted, out.errs)
			}
			got := map[string]bool{}
			for _, m := range out.metrics {
				got[m.name] = true
				unit, ok := want[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: undeclared metric %s", w.name, trace, m.name)
				case unit != m.unit:
					t.Errorf("%s: %s in %s, declared %s", w.name, m.name, m.unit, unit)
				case math.IsNaN(m.value) || math.IsInf(m.value, 0):
					t.Errorf("%s: %s = %v", w.name, m.name, m.value)
				case trace == 0 && m.value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, m.value)
				}
			}
			for name := range want {
				if !got[name] {
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, name)
				}
			}
		}
	}
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	w := small(workloads[0])
	in := newInput(w, 1, "")
	chk := newChecker(w, in.keys, in.pattern, in.pre, in.size, in.off)
	live := in.pre[0]
	owner := w.owner(live)
	var p pending
	chk.onSend(owner, op{kind: opGet, key: live}, 0, &p)
	exp := chk.expect(&p, 0, 0)
	if err := chk.checkGet(&p, exp, 1, int64(p.size)); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if chk.checkGet(&p, exp, 0, 0) == nil {
		t.Error("a miss on a live key passed")
	}
	if chk.checkGet(&p, exp, 1, int64(p.size)+1) == nil {
		t.Error("a wrong length passed")
	}
	chk.onSend(owner, op{kind: opDel, key: live}, 0, &p)
	chk.onSend(owner, op{kind: opGet, key: live}, 0, &p)
	if chk.checkGet(&p, chk.expect(&p, 0, 0), 1, int64(w.minVal)) == nil {
		t.Error("a hit on a deleted key passed")
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "rr-get", "--seconds", "0"},
		{"--workload", "rr-get", "--trace", "2"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

// TestStallEndsRun points the generator at a server that accepts and never
// answers: every request times out, and the watchdog ends the run with a
// goroutine dump and an error instead of hanging.
func TestStallEndsRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	w := small(workloads[0])
	in := newInput(w, 1, t.TempDir())
	chk := newChecker(w, in.keys, in.pattern, in.pre, in.size, in.off)
	r := &rig{w: w, nodes: []*node{{addr: ln.Addr().String()}}}
	start := time.Now()
	runs, _, err := measure(in, r, chk, 30*time.Second, numSlices, in.seed, false)
	if err == nil {
		t.Fatal("a silent server did not end the run with an error")
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("stall took %s to detect", took)
	}
	var failed uint64
	for _, cr := range runs {
		failed += cr.failed
	}
	if failed == 0 {
		t.Error("timed-out requests were not counted as failed")
	}
}

func TestCheckerTTLBrackets(t *testing.T) {
	w := small(workloads[2])
	in := newInput(w, 1, "")
	chk := newChecker(w, in.keys, in.pattern, in.pre, in.size, in.off)
	k := uint32(2)
	conn := w.owner(k)
	var set pending
	chk.onSend(conn, op{kind: opSet, key: k, ttl: true, size: 40, off: 7}, 100, &set)
	chk.onStored(&set, 100) // expires at second 102 at the latest
	for _, c := range []struct {
		send, recv int64
		want       uint8
	}{
		{100, 101, expHit},    // replied before the earliest expiry
		{101, 102, expEither}, // may have been served on either side
		{102, 102, expMiss},   // sent once expiry was certain
	} {
		var p pending
		chk.onSend(conn, op{kind: opGet, key: k}, c.send, &p)
		if got := chk.expect(&p, c.send, c.recv); got != c.want {
			t.Errorf("get sent at %d, answered at %d: expectation %d, want %d", c.send, c.recv, got, c.want)
		}
	}
}
