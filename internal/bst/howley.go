package bst

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
)

// Howley & Jones (SPAA'12): a non-blocking *internal* BST. Every node
// carries an operation word; any thread that encounters a pending operation
// helps it before proceeding — including searches, which is precisely the
// ASCY1/2 violation the paper charges howley for ("howley employs helping
// even while searching or parsing the tree", §5/Figure 7). Deleting a node
// with two children relocates the successor's key/value into it via a
// RELOCATE state machine.

// Operation-word states.
const (
	hwNone int32 = iota
	hwMark
	hwChildCAS
	hwRelocate
)

// Relocation states.
const (
	relocOngoing int32 = iota
	relocSuccessful
	relocFailed
)

// hwOp is an immutable operation record; the containing node's op word
// points at one, and all hand-offs are CASes on that word (object identity
// plays the role of the C version's pointer tagging).
type hwOp struct {
	state int32
	child *hwChildCASOp
	reloc *hwRelocateOp
}

// hwNoneOp is the initial "no operation" word of a fresh node. It must only
// ever be *installed* at node creation: the C original distinguishes op-word
// generations with tagged pointers, and the Go equivalent is releasing an op
// word with a *fresh* none op (newHWNoneOp) each time. Re-installing this
// singleton would let a node's op word return to a previously-observed
// pointer (None -> ChildCAS -> None), and a racer that read its child
// pointers against the first None could then CAS its own op in against a
// stale snapshot and lose an insert (ABA).
var hwNoneOp = &hwOp{state: hwNone}

func newHWNoneOp() *hwOp { return &hwOp{state: hwNone} }

type hwChildCASOp struct {
	isLeft           bool
	expected, update *hwNode
}

// hwRelocateOp carries the op words every helper installs, so that all of
// them CAS against the same records (the C original's FLAG(op, RELOCATE)
// and FLAG(op, NONE)): claim goes on the successor and then on dest, done
// releases dest.
type hwRelocateOp struct {
	state       atomic.Int32 // relocOngoing/Successful/Failed
	dest        *hwNode
	destOp      *hwOp
	destKV      *hwKV // dest's pair while destOp was current
	replaceKV   *hwKV // the successor's pair, copied into dest
	claim, done *hwOp
}

// hwKV is an immutable key/value pair. Relocation swaps dest's pair with
// one CAS, so readers never see a key with another key's value, and a late
// helper's copy fails instead of overwriting a newer pair.
type hwKV struct {
	key   core.Key
	value core.Value
}

type hwNode struct {
	kv    atomic.Pointer[hwKV] // mutable: relocation swaps it
	left  atomic.Pointer[hwNode]
	right atomic.Pointer[hwNode]
	op    atomic.Pointer[hwOp]
	kv0   hwKV // the initial pair, inline to save an allocation
	null  bool // a null marker, not a node (see hwIsNull)
}

func newHWNode(k core.Key, v core.Value) *hwNode {
	n := &hwNode{kv0: hwKV{key: k, value: v}}
	n.kv.Store(&n.kv0)
	n.op.Store(hwNoneOp)
	return n
}

// hwIsNull reports whether a child slot is empty. A slot starts as nil, and
// every splice that empties one stores a fresh null marker instead (the C
// original tags the null with the excised node's address). Empty slots are
// thus never equal across time, so a late helper's ChildCAS that expected
// an earlier empty slot cannot re-link a node that has since been removed.
func hwIsNull(n *hwNode) bool { return n == nil || n.null }

// Howley is the howley tree of Table 1.
type Howley struct {
	core.OrderedVia
	root *hwNode // sentinel, key 0 (< every user key); tree in root.right
}

// NewHowley returns an empty tree.
func NewHowley(cfg core.Config) *Howley {
	s := &Howley{root: newHWNode(0, 0)}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// find results.
const (
	hwFound int32 = iota
	hwNotFoundL
	hwNotFoundR
	hwAbort
)

// find locates k starting at root (the subtree root for successor searches),
// helping any pending operation it meets and restarting after. It returns
// the last node visited (curr) and its parent, with the op words observed
// while they were quiescent.
func (t *Howley) find(c *perf.Ctx, k core.Key, root *hwNode) (pred *hwNode, predOp *hwOp, curr *hwNode, currOp *hwOp, result int32) {
retry:
	for {
		result = hwNotFoundR
		pred, predOp = nil, nil
		curr = root
		currOp = curr.op.Load()
		if currOp.state != hwNone {
			if root == t.root {
				c.Inc(perf.EvHelp)
				t.helpChildCAS(c, currOp, curr)
				continue retry
			}
			return nil, nil, nil, nil, hwAbort
		}
		var lastRight *hwNode = curr
		var lastRightOp *hwOp = currOp
		next := curr.right.Load()
		for !hwIsNull(next) {
			pred, predOp = curr, currOp
			curr = next
			currOp = curr.op.Load()
			if currOp.state != hwNone {
				c.Inc(perf.EvHelp)
				t.help(c, pred, predOp, curr, currOp)
				continue retry
			}
			c.Inc(perf.EvTraverse)
			ckey := curr.kv.Load().key
			if k < ckey {
				result = hwNotFoundL
				next = curr.left.Load()
			} else if k > ckey {
				result = hwNotFoundR
				next = curr.right.Load()
				lastRight, lastRightOp = curr, currOp
			} else {
				result = hwFound
				break
			}
		}
		if result != hwFound && lastRightOp != lastRight.op.Load() {
			// A deletion may have moved things behind our back.
			c.Inc(perf.EvRestart)
			continue retry
		}
		if curr.op.Load() != currOp {
			// curr's key or children were read under an op word
			// that has since changed.
			c.Inc(perf.EvRestart)
			continue retry
		}
		return pred, predOp, curr, currOp, result
	}
}

func (t *Howley) help(c *perf.Ctx, pred *hwNode, predOp *hwOp, curr *hwNode, currOp *hwOp) {
	switch currOp.state {
	case hwChildCAS:
		t.helpChildCAS(c, currOp, curr)
	case hwRelocate:
		t.helpRelocate(c, currOp.reloc, pred, predOp, curr)
	case hwMark:
		t.helpMarked(c, pred, predOp, curr)
	}
}

// helpChildCAS completes a pending child swap and releases the op word.
func (t *Howley) helpChildCAS(c *perf.Ctx, op *hwOp, dest *hwNode) {
	if op.state != hwChildCAS {
		return
	}
	addr := &dest.right
	if op.child.isLeft {
		addr = &dest.left
	}
	if addr.CompareAndSwap(op.child.expected, op.child.update) {
		c.Inc(perf.EvCAS)
	}
	if dest.op.CompareAndSwap(op, newHWNoneOp()) {
		c.Inc(perf.EvCAS)
	}
}

// helpMarked splices a marked (≤1 child) node out from under pred via a
// ChildCAS on pred.
func (t *Howley) helpMarked(c *perf.Ctx, pred *hwNode, predOp *hwOp, curr *hwNode) {
	newRef := curr.left.Load()
	if hwIsNull(newRef) {
		newRef = curr.right.Load()
		if hwIsNull(newRef) {
			newRef = &hwNode{null: true}
		}
	}
	isLeft := curr == pred.left.Load()
	casOp := &hwOp{state: hwChildCAS, child: &hwChildCASOp{isLeft: isLeft, expected: curr, update: newRef}}
	if pred.op.CompareAndSwap(predOp, casOp) {
		c.Inc(perf.EvCAS)
		t.helpChildCAS(c, casOp, pred)
	} else {
		c.Inc(perf.EvCASFail)
	}
}

// helpRelocate drives the two-node relocation state machine: claim the
// destination, copy the successor's pair into it, then mark and excise the
// successor.
func (t *Howley) helpRelocate(c *perf.Ctx, op *hwRelocateOp, pred *hwNode, predOp *hwOp, curr *hwNode) bool {
	seen := op.state.Load()
	if seen == relocOngoing {
		claimed := op.dest.op.CompareAndSwap(op.destOp, op.claim)
		if claimed {
			c.Inc(perf.EvCAS)
		} else {
			c.Inc(perf.EvCASFail)
		}
		// dest is released from claim only after the state is
		// Successful, so a failed CAS that does not find the claim
		// either lost to another helper's completed relocation (the
		// state CAS below then fails) or found destOp gone for good.
		if claimed || op.dest.op.Load() == op.claim {
			op.state.CompareAndSwap(relocOngoing, relocSuccessful)
			seen = relocSuccessful
		} else {
			op.state.CompareAndSwap(relocOngoing, relocFailed)
			seen = op.state.Load()
		}
	}
	ok := seen == relocSuccessful
	if ok {
		// Copy the pair into dest and release dest's op word. Both
		// CASes fail for every helper but the first.
		if op.dest.kv.CompareAndSwap(op.destKV, op.replaceKV) {
			c.Inc(perf.EvCAS)
		}
		if op.dest.op.CompareAndSwap(op.claim, op.done) {
			c.Inc(perf.EvCAS)
		}
	}
	if curr == op.dest {
		return ok
	}
	// Resolve the successor node (curr): marked for excision on success,
	// restored on failure.
	target := newHWNoneOp()
	if ok {
		target = &hwOp{state: hwMark}
	}
	if curr.op.CompareAndSwap(op.claim, target) {
		c.Inc(perf.EvCAS)
	}
	if ok {
		// When pred is dest, its op word is now done (or later):
		// splice against done, and let a later traversal finish the
		// excision if pred has moved on.
		if pred == op.dest {
			predOp = op.done
		}
		t.helpMarked(c, pred, predOp, curr)
	}
	return ok
}

// SearchCtx implements core.Instrumented. Note: find helps pending
// operations and restarts — howley's searches are not ASCY1, by design.
func (t *Howley) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	_, _, curr, _, res := t.find(c, k, t.root)
	// A relocation may have swapped curr's pair since find matched k; k
	// was then removed within this call, so a miss is a valid answer.
	if kv := curr.kv.Load(); res == hwFound && kv.key == k {
		return kv.value, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (t *Howley) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		_, _, curr, currOp, res := t.find(c, k, t.root)
		c.ParseEnd()
		if res == hwFound {
			return false
		}
		n := newHWNode(k, v)
		isLeft := res == hwNotFoundL
		var old *hwNode
		if isLeft {
			old = curr.left.Load()
		} else {
			old = curr.right.Load()
		}
		casOp := &hwOp{state: hwChildCAS, child: &hwChildCASOp{isLeft: isLeft, expected: old, update: n}}
		if curr.op.CompareAndSwap(currOp, casOp) {
			c.Inc(perf.EvCAS)
			t.helpChildCAS(c, casOp, curr)
			return true
		}
		c.Inc(perf.EvCASFail)
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented.
func (t *Howley) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		pred, predOp, curr, currOp, res := t.find(c, k, t.root)
		c.ParseEnd()
		if res != hwFound {
			return 0, false
		}
		// curr's pair cannot change while currOp stays installed,
		// and both paths below CAS against currOp.
		kv := curr.kv.Load()
		if hwIsNull(curr.right.Load()) || hwIsNull(curr.left.Load()) {
			// At most one child: mark, then splice out.
			if curr.op.CompareAndSwap(currOp, &hwOp{state: hwMark}) {
				c.Inc(perf.EvCAS)
				t.helpMarked(c, pred, predOp, curr)
				return kv.value, true
			}
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		// Two children: relocate the in-order successor's pair here.
		pred2, predOp2, succ, succOp, res2 := t.find(c, k, curr)
		if res2 == hwAbort {
			c.Inc(perf.EvRestart)
			continue
		}
		if res2 == hwFound {
			// Another relocation already moved k into the subtree;
			// retry from the top.
			c.Inc(perf.EvRestart)
			continue
		}
		if succ == curr {
			// The successor walk restarted after helping and found
			// curr's right subtree gone: curr no longer has two
			// children, so the relocation no longer applies (a
			// self-relocation would "succeed" without removing
			// anything). Re-evaluate from the top.
			c.Inc(perf.EvRestart)
			continue
		}
		reloc := &hwRelocateOp{
			dest:      curr,
			destOp:    currOp,
			destKV:    kv,
			replaceKV: succ.kv.Load(),
			done:      newHWNoneOp(),
		}
		reloc.claim = &hwOp{state: hwRelocate, reloc: reloc}
		if succ.op.CompareAndSwap(succOp, reloc.claim) {
			c.Inc(perf.EvCAS)
			if t.helpRelocate(c, reloc, pred2, predOp2, succ) {
				return kv.value, true
			}
		} else {
			c.Inc(perf.EvCASFail)
		}
		c.Inc(perf.EvRestart)
	}
}

// Search looks up k.
func (t *Howley) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *Howley) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *Howley) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }

// Size counts reachable live nodes (excluding the sentinel and nodes whose
// op word is MARK: those are logically deleted, awaiting excision by the
// next traversal that helps them). Quiescent use only.
func (t *Howley) Size() int {
	n := 0
	stack := []*hwNode{t.root.right.Load()}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if hwIsNull(nd) {
			continue
		}
		if nd.op.Load().state != hwMark {
			n++
		}
		stack = append(stack, nd.left.Load(), nd.right.Load())
	}
	return n
}
