package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/xrand"
)

// opKind is an operation class of the generated stream.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "delete", "mrange"}

// isRead reports whether the class counts toward read_p99_us.
func (k opKind) isRead() bool { return k == opGet || k == opScan }

// workload fixes everything a run drives: the servers, the load model and
// the key, value and operation distributions.
type workload struct {
	name    string
	algo    string
	ordered bool
	shards  int
	nodes   int // in-process server nodes; >1 drives them through cluster.Client
	conns   int // generator connections, one goroutine each
	depth   int // closed-loop batch window per connection
	keys    int // preloaded keys N; the key domain is [1..2N]
	zipf    float64
	minVal  int
	maxVal  int
	mix     [numKinds]int // percent per class
	span    int           // mrange span and limit
	// One set in ttlEvery carries exptime ttl seconds (0: no TTLs).
	ttlEvery int
	ttl      int64
	warmBoot bool // setup is a warm restart from a snapshot of the preload
	setups   int  // setups per untraced run; setup_s is their median
	// instances is how many of the last setups an untraced run measures,
	// each for an equal share of the window.
	instances int
}

var workloads = []*workload{
	// Why each workload was chosen is recorded in NOTES.md and BENCHMARK.json.
	{
		name: "rr-get",
		algo: "ht-clht-lb", shards: 1, nodes: 1, conns: 2, depth: 1,
		keys: 4096, minVal: 64, maxVal: 64,
		mix:    [numKinds]int{90, 5, 5, 0},
		setups: 21, instances: 1,
	},
	{
		name: "scan-cluster",
		algo: "sl-fraser-opt", ordered: true, shards: 1, nodes: 2, conns: 1, depth: 16,
		keys: 262144, zipf: 1.1, minVal: 64, maxVal: 64,
		mix: [numKinds]int{70, 10, 10, 10}, span: 32,
		setups: 3, instances: 3,
	},
	{
		name: "set-storm",
		algo: "ht-clht-lb", shards: 2, nodes: 1, conns: 2, depth: 16,
		keys: 262144, minVal: 32, maxVal: 1024,
		mix:      [numKinds]int{20, 60, 20, 0},
		ttlEvery: 4, ttl: 2, warmBoot: true,
		setups: 5, instances: 1,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// domain is the size of the key domain [1..2N].
func (w *workload) domain() int { return 2 * w.keys }

// owner returns the generator connection that owns key index k for writes.
func (w *workload) owner(k uint32) int { return int(k-1) % w.conns }

// keyTable returns the wire keys, index 0 unused. Keys are fixed-width so
// that lexicographic order (the server's scan order) is index order, and
// exactly 8 bytes so that the ordered keying's 8-byte prefix is the whole
// key.
func keyTable(domain int) []string {
	keys := make([]string, domain+1)
	for i := 1; i <= domain; i++ {
		s := strconv.Itoa(i)
		keys[i] = "k" + "0000000"[:7-len(s)] + s
	}
	return keys
}

// patternLen bounds value offsets: a value is pattern[off : off+size], so the
// offset doubles as the value's version.
const patternLen = 4096

// valueOf cuts the value of the given size and offset from the pattern.
func valueOf(pattern []byte, size, off uint16) []byte {
	return pattern[int(off) : int(off)+int(size)]
}

// valuePattern is the byte source every value is cut from.
func valuePattern(seed uint64, maxVal int) []byte {
	r := xrand.New(seed ^ 0x7a1e)
	p := make([]byte, patternLen+maxVal)
	for i := range p {
		p[i] = 'a' + byte(r.Uint64n(26))
	}
	return p
}

// op is one generated operation. For a set, size and off select the value
// bytes; for a scan, key is the low bound and the high bound is key+span.
type op struct {
	kind opKind
	ttl  bool
	size uint16
	off  uint16
	key  uint32
}

// streamSeed is the seed of operation stream number instance of a run:
// stream 0 is the run's seed itself.
func streamSeed(seed, instance uint64) uint64 { return seed + instance*0x9E3779B97F4A7C15 }

// opGen yields one connection's deterministic operation stream.
type opGen struct {
	w    *workload
	conn uint32
	rng  *xrand.State
	zipf *rand.Zipf
	sets int
}

// xrandSource adapts xrand to math/rand's Source64 for the zipf sampler.
type xrandSource struct{ s *xrand.State }

func (x xrandSource) Uint64() uint64  { return x.s.Uint64() }
func (x xrandSource) Int63() int64    { return int64(x.s.Uint64() >> 1) }
func (x xrandSource) Seed(seed int64) { x.s.Seed(uint64(seed)) }

func newOpGen(w *workload, seed uint64, conn int) *opGen {
	g := &opGen{w: w, conn: uint32(conn), rng: xrand.New(seed*0x9E3779B97F4A7C15 + uint64(conn) + 1)}
	if w.zipf > 0 {
		zr := rand.New(xrandSource{xrand.New(seed*0xBF58476D1CE4E5B9 + uint64(conn) + 7)})
		g.zipf = rand.NewZipf(zr, w.zipf, 1, uint64(w.domain()-1))
	}
	return g
}

func (g *opGen) drawKey() uint32 {
	if g.zipf != nil {
		return uint32(g.zipf.Uint64()) + 1
	}
	return uint32(g.rng.Uint64n(uint64(g.w.domain()))) + 1
}

// ownKey moves k onto the nearest key this connection owns.
func (g *opGen) ownKey(k uint32) uint32 {
	w := g.w
	k = k - uint32(w.owner(k)) + g.conn
	if int(k) > w.domain() {
		k -= uint32(w.conns)
	}
	return k
}

func (g *opGen) next() op {
	w := g.w
	r := int(g.rng.Uint64n(100))
	kind := opGet
	for c := opKind(0); c < numKinds; c++ {
		if r < w.mix[c] {
			kind = c
			break
		}
		r -= w.mix[c]
	}
	o := op{kind: kind, key: g.drawKey()}
	switch kind {
	case opSet:
		o.key = g.ownKey(o.key)
		o.size = uint16(w.minVal + int(g.rng.Uint64n(uint64(w.maxVal-w.minVal+1))))
		o.off = uint16(g.rng.Uint64n(patternLen))
		g.sets++
		o.ttl = w.ttlEvery > 0 && g.sets%w.ttlEvery == 0
	case opDel:
		o.key = g.ownKey(o.key)
	case opScan:
		if int(o.key)+w.span > w.domain() {
			o.key = uint32(w.domain() - w.span)
		}
	}
	return o
}

// preload returns the N preloaded keys, drawn from [1..2N] by a seeded
// permutation as in the paper's protocol, and each key's initial value.
func preload(w *workload, seed uint64) (keys []uint32, size, off []uint16) {
	r := xrand.New(seed ^ 0x5eed)
	perm := make([]uint32, w.domain())
	for i := range perm {
		perm[i] = uint32(i + 1)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Uint64n(uint64(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	keys = perm[:w.keys]
	size = make([]uint16, w.keys)
	off = make([]uint16, w.keys)
	for i := range keys {
		size[i] = uint16(w.minVal + int(r.Uint64n(uint64(w.maxVal-w.minVal+1))))
		off[i] = uint16(r.Uint64n(patternLen))
	}
	return keys, size, off
}
