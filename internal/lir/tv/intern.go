package tv

import (
	"math"

	"replayopt/internal/lir"
)

// nodeID names a hash-consed canonical expression. Within one table, two
// expressions are equal exactly when their IDs are. 0 is "no node".
type nodeID int32

// nodeKind separates the expression shapes. A kExpr node's op alone fixes
// which of x and y it uses, so no two ops share an encoding.
type nodeKind uint8

const (
	kConstInt   nodeKind = iota + 1 // x = value
	kConstFloat                     // x = IEEE-754 bits
	kParam                          // x = slot
	kPhiTok                         // positional phi token: x = pair, y = position among the block's non-trivial phis
	kObs                            // observable result: x = pair, y = observable index
	kMem                            // memory-state token of a load: x = pair, y = observables before it
	kExpr                           // op applied to kids; x = slot (loads, fallback), y = sym (classof, intrinsic, fallback)
	kFlat                           // associative/commutative chain: op, x = constant part, kids = sorted leaves, mults = multiplicities
	kOpaque                         // equal only to itself: cycles, unpositioned phis and observables, overflowed chains
)

type node struct {
	kind   nodeKind
	op     lir.Op
	x, y   int64
	off, n int32 // kids[off:off+n], and mults[off:off+n] for kFlat
	hash   uint32
}

// leafCount is one leaf of a flattened chain with its multiplicity.
type leafCount struct {
	leaf nodeID
	mult int64
}

// opaqueKey memoizes a per-pointer opaque token, so one value asked twice
// answers the same node, as its pointer-named token always did.
type opaqueKey struct {
	v    *lir.Value
	kind uint8
}

// Opaque token kinds.
const (
	opaqueCycle uint8 = iota // a cycle not broken by a phi token
	opaquePhi                // a phi without a positional token
	opaqueObs                // an observable outside every block pair
)

// table is the intern table shared by both sides of one Validate call.
// Nodes live in one slice and their operands in two parallel arenas; an
// open-addressing index over the node hashes finds an existing node in
// expected constant time, so interning allocates only when the arenas grow.
type table struct {
	nodes  []node
	kids   []nodeID
	mults  []int64
	index  []nodeID // open addressing, power-of-two length; 0 = empty
	opaque map[opaqueKey]nodeID

	// Scratch for building a chain's leaves.
	leafBuf []leafCount
	kidBuf  []nodeID
	multBuf []int64
}

func (t *table) reset(sizeHint int) {
	t.nodes = append(t.nodes[:0], node{}) // node 0 is "no node"
	t.kids = t.kids[:0]
	t.mults = t.mults[:0]
	n := 64
	for n < 2*sizeHint {
		n *= 2
	}
	t.index = resize(t.index, n)
	clear(t.opaque)
}

func (t *table) kind(id nodeID) nodeKind { return t.nodes[id].kind }

func (t *table) constInt(c int64) nodeID { return t.intern(kConstInt, 0, c, 0, nil, nil) }

func (t *table) constFloat(f float64) nodeID {
	return t.intern(kConstFloat, 0, int64(math.Float64bits(f)), 0, nil, nil)
}

func (t *table) atom(kind nodeKind, x, y int64) nodeID { return t.intern(kind, 0, x, y, nil, nil) }

func (t *table) expr(op lir.Op, x, y int64, kids ...nodeID) nodeID {
	return t.intern(kExpr, op, x, y, kids, nil)
}

// intOf and floatOf read a constant node's value.
func (t *table) intOf(id nodeID) (int64, bool) {
	n := &t.nodes[id]
	return n.x, n.kind == kConstInt
}

func (t *table) floatOf(id nodeID) (float64, bool) {
	n := &t.nodes[id]
	return math.Float64frombits(uint64(n.x)), n.kind == kConstFloat
}

// flat returns a kFlat node's operator, constant part, and leaves.
func (t *table) flat(id nodeID) (op lir.Op, cnst int64, leaves []nodeID, mults []int64) {
	n := &t.nodes[id]
	return n.op, n.x, t.kids[n.off : n.off+n.n], t.mults[n.off : n.off+n.n]
}

// fresh appends an opaque node equal to nothing else.
func (t *table) fresh() nodeID {
	t.nodes = append(t.nodes, node{kind: kOpaque, x: int64(len(t.nodes))})
	return nodeID(len(t.nodes) - 1)
}

// opaqueFor returns v's opaque token of the given kind, creating it once.
func (t *table) opaqueFor(v *lir.Value, kind uint8) nodeID {
	k := opaqueKey{v, kind}
	if id, ok := t.opaque[k]; ok {
		return id
	}
	if t.opaque == nil {
		t.opaque = map[opaqueKey]nodeID{}
	}
	id := t.fresh()
	t.opaque[k] = id
	return id
}

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// intern returns the node with the given fields, adding it if new. mults is
// nil except for kFlat, where it runs parallel to kids.
func (t *table) intern(kind nodeKind, op lir.Op, x, y int64, kids []nodeID, mults []int64) nodeID {
	h := mix(mix(mix(0xcbf29ce484222325, uint64(kind)<<8|uint64(op)), uint64(x)), uint64(y))
	for i, k := range kids {
		h = mix(h, uint64(k))
		if mults != nil {
			h = mix(h, uint64(mults[i]))
		}
	}
	h32 := uint32(h ^ h>>32)
	mask := uint32(len(t.index) - 1)
	for i := h32 & mask; ; i = (i + 1) & mask {
		id := t.index[i]
		if id == 0 {
			break
		}
		if t.equal(id, h32, kind, op, x, y, kids, mults) {
			return id
		}
	}
	off := int32(len(t.kids))
	t.kids = append(t.kids, kids...)
	if mults != nil {
		t.mults = append(t.mults, mults...)
	} else {
		for range kids {
			t.mults = append(t.mults, 0)
		}
	}
	t.nodes = append(t.nodes, node{kind: kind, op: op, x: x, y: y, off: off, n: int32(len(kids)), hash: h32})
	id := nodeID(len(t.nodes) - 1)
	if len(t.nodes) > len(t.index)/2 {
		t.grow()
	} else {
		t.place(id)
	}
	return id
}

func (t *table) equal(id nodeID, h32 uint32, kind nodeKind, op lir.Op, x, y int64, kids []nodeID, mults []int64) bool {
	n := &t.nodes[id]
	if n.hash != h32 || n.kind != kind || n.op != op || n.x != x || n.y != y || int(n.n) != len(kids) {
		return false
	}
	for i, k := range t.kids[n.off : n.off+n.n] {
		if k != kids[i] || (mults != nil && t.mults[int(n.off)+i] != mults[i]) {
			return false
		}
	}
	return true
}

func (t *table) place(id nodeID) {
	mask := uint32(len(t.index) - 1)
	i := t.nodes[id].hash & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = id
}

// grow doubles the index and re-places every hashed node.
func (t *table) grow() {
	t.index = make([]nodeID, 2*len(t.index))
	for id := 1; id < len(t.nodes); id++ {
		if t.nodes[id].kind != kOpaque {
			t.place(nodeID(id))
		}
	}
}
