package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Span names, recorded by the benchmark around its calls into each layer.
const (
	spWindow    = iota // one closed-loop batch window (the parent of the calls in it)
	spSend             // client/cluster Send*
	spFlush            // client/cluster Flush
	spRecv             // client/cluster Recv*
	spRoute            // cluster Router.NodeOf
	spSnapWrite        // Store.SnapshotTo
	spSnapLoad         // Store.LoadFrom
	numSpans
)

var spanNames = [numSpans]string{"window", "send", "flush", "recv", "route", "snapshot.write", "snapshot.load"}

// span is one recorded interval. Req is the sequence number of the
// operation the span served; a window and its flush carry the number of
// the window's first operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    uint64 `json:"req"`
}

// traceSampleEvery keeps the spans of one window in this many; the per-name
// totals cover every window.
const traceSampleEvery = 64

// tracer is one goroutine's span buffer and per-name totals. A nil tracer
// records nothing.
type tracer struct {
	id     int64 // ID prefix of this goroutine's spans
	next   int64
	keep   bool
	parent int64
	req    uint64 // the window's first operation
	op     uint64 // the operation within the window being served
	spans  []span
	total  [numSpans]int64
	count  [numSpans]int64
}

// traceEpoch is the zero of every span's start and end.
var traceEpoch = time.Now()

func newTracer(goroutine int) *tracer {
	return &tracer{id: int64(goroutine) << 40, spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(traceEpoch))
}

// beginWindow opens window number w, whose first operation has sequence
// number req.
func (t *tracer) beginWindow(w int, req uint64) int64 {
	if t == nil {
		return 0
	}
	t.keep = w%traceSampleEvery == 0
	t.req, t.op = req, 0
	t.parent = 0
	start := t.now()
	if t.keep {
		t.next++
		t.parent = t.id + t.next
	}
	return start
}

// serve marks operation i of the window as the one the next spans serve.
func (t *tracer) serve(i int) {
	if t != nil {
		t.op = uint64(i)
	}
}

// end records a span of the given name that started at start.
func (t *tracer) end(name int, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.total[name] += end - start
	t.count[name]++
	if !t.keep {
		return
	}
	s := span{Name: spanNames[name], Start: start, End: end, Req: t.req}
	if name == spWindow {
		s.ID = t.parent
	} else {
		if name != spFlush {
			s.Req += t.op
		}
		t.next++
		s.ID, s.Parent = t.id+t.next, t.parent
	}
	t.spans = append(t.spans, s)
}

func (t *tracer) merge(o *tracer) {
	for i := range t.total {
		t.total[i] += o.total[i]
		t.count[i] += o.count[i]
	}
	t.spans = append(t.spans, o.spans...)
}

// writeSpans writes the kept spans as JSON lines, once the run has ended.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTimes is user and system CPU time in nanoseconds.
type cpuTimes struct{ user, sys int64 }

func (a cpuTimes) sub(b cpuTimes) cpuTimes { return cpuTimes{a.user - b.user, a.sys - b.sys} }

// processCPU is the CPU time of the whole process.
func processCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return cpuTimes{ru.Utime.Nano(), ru.Stime.Nano()}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
