package lir

import "fmt"

// VerifyIR is the IR well-formedness check: passes are tested against it,
// and the translation validator's strict mode runs it after every pass. It
// checks the shape (block, phi and terminator structure, edge symmetry,
// unique block and value IDs), then the SSA dominance discipline: every use
// must be dominated by its definition (in straight-line code, defined
// earlier in the same block), and a phi argument must be available at the
// end of the corresponding predecessor. Last it checks per-op typing and
// memory-op legality, and that every instruction's Block pointer names its
// block. Returns the first violation found.
//
// The tables are indexed by block ID and value ID, so a check costs time
// linear in the function's size.
func VerifyIR(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("lir-verify: %s has no blocks", f.Name)
	}
	d := indexBlocks(f.Blocks)
	for i, b := range f.Blocks {
		switch p := d.at(b); {
		case p == int32(i):
		case p >= 0:
			return fmt.Errorf("lir-verify: block b%d listed twice", b.ID)
		case b.ID < 0:
			return fmt.Errorf("lir-verify: block b%d has a negative ID", b.ID)
		default:
			return fmt.Errorf("lir-verify: two distinct blocks share ID b%d", b.ID)
		}
	}
	defs := newDefTable(f)
	for bi, b := range f.Blocks {
		for _, p := range b.Phis {
			if p.Op != OpPhi {
				return fmt.Errorf("lir-verify: non-phi %s in b%d's phi list", p.Op, b.ID)
			}
			if len(p.Args) != len(b.Preds) {
				return fmt.Errorf("lir-verify: phi v%d in b%d has %d args for %d preds",
					p.ID, b.ID, len(p.Args), len(b.Preds))
			}
			if prev, dup := defs.lookup(p); dup {
				return fmt.Errorf("lir-verify: value v%d defined in b%d and b%d", p.ID, f.Blocks[prev.block].ID, b.ID)
			}
			defs.define(p, defSite{int32(bi), -1})
		}
		for i, v := range b.Insns {
			if v.Op == OpPhi {
				return fmt.Errorf("lir-verify: phi v%d in b%d's instruction list", v.ID, b.ID)
			}
			if prev, dup := defs.lookup(v); dup {
				return fmt.Errorf("lir-verify: value v%d defined in b%d and b%d", v.ID, f.Blocks[prev.block].ID, b.ID)
			}
			defs.define(v, defSite{int32(bi), int32(i)})
			if v.IsTerminator() && i != len(b.Insns)-1 {
				return fmt.Errorf("lir-verify: terminator %s mid-block in b%d", v.Op, b.ID)
			}
		}
		t := b.Term()
		if t == nil {
			return fmt.Errorf("lir-verify: b%d has no terminator", b.ID)
		}
		switch t.Op {
		case OpBranch:
			if len(b.Succs) != 2 {
				return fmt.Errorf("lir-verify: branch block b%d has %d succs", b.ID, len(b.Succs))
			}
		case OpJump:
			if len(b.Succs) != 1 {
				return fmt.Errorf("lir-verify: jump block b%d has %d succs", b.ID, len(b.Succs))
			}
		case OpReturn, OpThrow:
			if len(b.Succs) != 0 {
				return fmt.Errorf("lir-verify: exit block b%d has %d succs", b.ID, len(b.Succs))
			}
		}
	}
	// Edge symmetry, in both directions: each b->s successor entry needs a
	// matching s.Preds entry and each pred entry a matching successor entry
	// (a dangling Preds entry corrupts phi indexing even when every Succs
	// entry checks out).
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if d.at(s) < 0 {
				return fmt.Errorf("lir-verify: b%d's successor b%d is not in the function", b.ID, s.ID)
			}
			if found, want := count(s.Preds, b), count(b.Succs, s); found != want {
				return fmt.Errorf("lir-verify: edge b%d->b%d: %d pred entries for %d succ entries",
					b.ID, s.ID, found, want)
			}
		}
		for _, p := range b.Preds {
			if d.at(p) < 0 {
				return fmt.Errorf("lir-verify: b%d's predecessor b%d is not in the function", b.ID, p.ID)
			}
			if found, want := count(p.Succs, b), count(b.Preds, p); found != want {
				return fmt.Errorf("lir-verify: edge b%d->b%d: %d succ entries for %d pred entries",
					p.ID, b.ID, found, want)
			}
		}
	}
	// Every argument must be defined somewhere in the function, and IDs must
	// be unique. The user's label is formatted only for a violation.
	label := func(v *Value, b *Block) string {
		if v.Op == OpPhi {
			return fmt.Sprintf("phi v%d in b%d", v.ID, b.ID)
		}
		return fmt.Sprintf("v%d (%s) in b%d", v.ID, v.Op, b.ID)
	}
	check := func(v *Value, b *Block) error {
		for _, a := range v.Args {
			if a == nil {
				return fmt.Errorf("lir-verify: nil argument in %s", label(v, b))
			}
			if _, ok := defs.lookup(a); !ok {
				return fmt.Errorf("lir-verify: %s uses v%d (%s) which is not defined in the function",
					label(v, b), a.ID, a.Op)
			}
		}
		if prev := defs.first(v.ID); prev != v {
			return fmt.Errorf("lir-verify: two distinct values share ID v%d (%s and %s)",
				v.ID, prev.Op, v.Op)
		}
		return nil
	}
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			if err := check(p, b); err != nil {
				return err
			}
		}
		for _, v := range b.Insns {
			if err := check(v, b); err != nil {
				return err
			}
		}
	}
	if err := verifyDominance(f, d, defs); err != nil {
		return err
	}
	return verifyTypes(f)
}

func count(blocks []*Block, b *Block) int {
	n := 0
	for _, x := range blocks {
		if x == b {
			n++
		}
	}
	return n
}

// defSite locates a definition: the block's position in Function.Blocks and
// the instruction index (-1 for a phi).
type defSite struct {
	block, pos int32
}

// defTable maps each value defined in the function to its site. It is
// indexed by Value.ID offset by the smallest ID; a value whose ID another
// value already took (malformed IR) spills into a map, so every pointer
// keeps its own entry.
type defTable struct {
	base  int
	vals  []*Value // vals[id-base]: the first value defined with that ID
	sites []defSite
	spill map[*Value]defSite
}

func newDefTable(f *Function) *defTable {
	lo, hi := 0, -1
	for _, b := range f.Blocks {
		for _, vs := range [2][]*Value{b.Phis, b.Insns} {
			for _, v := range vs {
				lo, hi = min(lo, v.ID), max(hi, v.ID)
			}
		}
	}
	return &defTable{base: lo, vals: make([]*Value, hi-lo+1), sites: make([]defSite, hi-lo+1)}
}

// first returns the first value defined with the given ID, or nil.
func (d *defTable) first(id int) *Value {
	if i := id - d.base; i >= 0 && i < len(d.vals) {
		return d.vals[i]
	}
	return nil
}

func (d *defTable) lookup(v *Value) (defSite, bool) {
	if i := v.ID - d.base; i >= 0 && i < len(d.vals) && d.vals[i] == v {
		return d.sites[i], true
	}
	s, ok := d.spill[v]
	return s, ok
}

func (d *defTable) define(v *Value, s defSite) {
	if i := v.ID - d.base; i >= 0 && i < len(d.vals) && d.vals[i] == nil {
		d.vals[i], d.sites[i] = v, s
		return
	}
	if d.spill == nil {
		d.spill = map[*Value]defSite{}
	}
	d.spill[v] = s
}

// verifyDominance enforces def-before-use in dominance order: an instruction
// argument must be a phi of the same block, an earlier instruction of the
// same block, or a definition in a strictly dominating block; a phi argument
// must be available at the end of the corresponding predecessor. Unreachable
// blocks are exempt (Recompute deletes them wholesale), but a reachable use
// of an unreachably-defined value is a violation.
func verifyDominance(f *Function, d *Dominance, defs *defTable) error {
	d.build()
	for bi, b := range f.Blocks {
		if !d.reach(int32(bi)) {
			continue
		}
		for _, p := range b.Phis {
			for i, a := range p.Args {
				pred := d.at(b.Preds[i])
				if !d.reach(pred) {
					continue
				}
				da, _ := defs.lookup(a)
				if !d.reach(da.block) || !d.dominates(da.block, pred) {
					return fmt.Errorf("lir-verify: phi v%d in b%d: arg v%d (%s) does not dominate predecessor b%d",
						p.ID, b.ID, a.ID, a.Op, f.Blocks[pred].ID)
				}
			}
		}
		for i, v := range b.Insns {
			for _, a := range v.Args {
				da, _ := defs.lookup(a)
				switch {
				case da.block == int32(bi):
					if a.Op != OpPhi && int(da.pos) >= i {
						return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d (%s) defined later in the block",
							v.ID, v.Op, b.ID, a.ID, a.Op)
					}
				case !d.reach(da.block):
					return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d defined in unreachable b%d",
						v.ID, v.Op, b.ID, a.ID, f.Blocks[da.block].ID)
				case !d.dominates(da.block, int32(bi)):
					return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d defined in non-dominating b%d",
						v.ID, v.Op, b.ID, a.ID, f.Blocks[da.block].ID)
				}
			}
		}
	}
	return nil
}

// verifyTypes enforces per-op typing and memory-op legality. One tolerated
// irregularity, inherited from BuildSSA: an integer-constant zero is the
// placeholder for values on never-taken paths, so an OpConstInt argument is
// accepted where a float or reference is otherwise required.
func verifyTypes(f *Function) error {
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			if err := checkPhi(p, b); err != nil {
				return err
			}
		}
		for _, v := range b.Insns {
			if v.Block != b {
				return fmt.Errorf("lir-verify: v%d (%s) in b%d has Block pointer b%d",
					v.ID, v.Op, b.ID, blockID(v.Block))
			}
			if err := checkValue(v); err != nil {
				return err
			}
		}
	}
	return nil
}

func blockID(b *Block) int {
	if b == nil {
		return -1
	}
	return b.ID
}

// loose reports whether a may stand where t is required: exact type match or
// the BuildSSA constant-zero placeholder.
func loose(a *Value, t Type) bool {
	return a.Type == t || placeholderish(a, map[*Value]bool{})
}

// placeholderish reports whether a value is BuildSSA's never-taken-path
// placeholder (an integer constant) or a phi merging only placeholders —
// the builder threads the zero placeholder through join points, so the
// tolerance must follow phi chains. A phi cycle with no other input can only
// carry the placeholder, so cycles count as placeholders too.
func placeholderish(v *Value, seen map[*Value]bool) bool {
	if v.Op == OpConstInt {
		return true
	}
	if v.Op != OpPhi || v.Type != TInt {
		return false
	}
	if seen[v] {
		return true
	}
	seen[v] = true
	for _, a := range v.Args {
		if !placeholderish(a, seen) {
			return false
		}
	}
	return true
}

// checkPhi enforces only voidness on phi arguments, not types: dex registers
// are untyped and BuildSSA types a phi by its dominant use, so a merge point
// legitimately mixes types when one path's value is never consumed (the
// never-taken placeholder, a dead-path call result). Type discipline is
// enforced where values are used, per checkValue.
func checkPhi(p *Value, b *Block) error {
	if p.Type == TVoid {
		return fmt.Errorf("lir-verify: phi v%d in b%d is void", p.ID, b.ID)
	}
	for i, a := range p.Args {
		if a.Type == TVoid {
			return fmt.Errorf("lir-verify: phi v%d arg %d is the void value v%d (%s)", p.ID, i, a.ID, a.Op)
		}
	}
	return nil
}

// sig describes an op's typing: expected arg types (TVoid in want = any
// non-void) and the required result type (res=TVoid means void-only;
// anyRes ops skip the result check).
type sig struct {
	want   []Type
	res    Type
	anyRes bool
}

var sigs = map[Op]sig{
	OpConstInt:    {want: []Type{}, res: TInt},
	OpConstFloat:  {want: []Type{}, res: TFloat},
	OpAdd:         {want: []Type{TInt, TInt}, res: TInt},
	OpSub:         {want: []Type{TInt, TInt}, res: TInt},
	OpMul:         {want: []Type{TInt, TInt}, res: TInt},
	OpDiv:         {want: []Type{TInt, TInt}, res: TInt},
	OpRem:         {want: []Type{TInt, TInt}, res: TInt},
	OpAnd:         {want: []Type{TInt, TInt}, res: TInt},
	OpOr:          {want: []Type{TInt, TInt}, res: TInt},
	OpXor:         {want: []Type{TInt, TInt}, res: TInt},
	OpShl:         {want: []Type{TInt, TInt}, res: TInt},
	OpShr:         {want: []Type{TInt, TInt}, res: TInt},
	OpNeg:         {want: []Type{TInt}, res: TInt},
	OpFAdd:        {want: []Type{TFloat, TFloat}, res: TFloat},
	OpFSub:        {want: []Type{TFloat, TFloat}, res: TFloat},
	OpFMul:        {want: []Type{TFloat, TFloat}, res: TFloat},
	OpFDiv:        {want: []Type{TFloat, TFloat}, res: TFloat},
	OpFNeg:        {want: []Type{TFloat}, res: TFloat},
	OpI2F:         {want: []Type{TInt}, res: TFloat},
	OpF2I:         {want: []Type{TFloat}, res: TInt},
	OpFCmp:        {want: []Type{TFloat, TFloat}, res: TInt},
	OpArrLen:      {want: []Type{TRef}, res: TInt},
	OpBoundsCheck: {want: []Type{TRef, TInt}, res: TVoid},
	OpArrLoad:     {want: []Type{TRef, TInt}, anyRes: true},
	OpArrStore:    {want: []Type{TRef, TInt, TVoid}, res: TVoid},
	OpFieldLoad:   {want: []Type{TRef}, anyRes: true},
	OpFieldStore:  {want: []Type{TRef, TVoid}, res: TVoid},
	OpStaticLoad:  {want: []Type{}, anyRes: true},
	OpStaticStore: {want: []Type{TVoid}, res: TVoid},
	OpNewArray:    {want: []Type{TInt}, res: TRef},
	OpNewObject:   {want: []Type{}, res: TRef},
	OpClassOf:     {want: []Type{TRef}, res: TInt},
	OpGCCheck:     {want: []Type{}, res: TVoid},
	OpJump:        {want: []Type{}, res: TVoid},
}

func checkValue(v *Value) error {
	// Ops with variable arity or fully dynamic typing.
	switch v.Op {
	case OpParam:
		if v.Type == TVoid {
			return fmt.Errorf("lir-verify: v%d param is void", v.ID)
		}
		return checkArity(v, 0)
	case OpCallStatic, OpCallNative, OpIntrinsic:
		return checkNonVoidArgs(v)
	case OpCallVirtual:
		if len(v.Args) == 0 {
			return fmt.Errorf("lir-verify: v%d callvirt has no receiver", v.ID)
		}
		if !loose(v.Args[0], TRef) {
			return fmt.Errorf("lir-verify: v%d callvirt receiver has type %s", v.ID, v.Args[0].Type)
		}
		return checkNonVoidArgs(v)
	case OpBranch:
		if err := checkArity(v, 2); err != nil {
			return err
		}
		if v.Type != TVoid {
			return fmt.Errorf("lir-verify: v%d branch is non-void", v.ID)
		}
		return checkNonVoidArgs(v)
	case OpReturn:
		if len(v.Args) > 1 {
			return fmt.Errorf("lir-verify: v%d return has %d args", v.ID, len(v.Args))
		}
		return checkNonVoidArgs(v)
	case OpThrow:
		if err := checkArity(v, 1); err != nil {
			return err
		}
		return checkNonVoidArgs(v)
	}
	s, ok := sigs[v.Op]
	if !ok {
		return fmt.Errorf("lir-verify: v%d has unknown op %s", v.ID, v.Op)
	}
	if err := checkArity(v, len(s.want)); err != nil {
		return err
	}
	for i, t := range s.want {
		a := v.Args[i]
		if a.Type == TVoid {
			return fmt.Errorf("lir-verify: v%d (%s) arg %d is the void value v%d (%s)", v.ID, v.Op, i, a.ID, a.Op)
		}
		if t == TVoid {
			continue // any non-void (store payloads, load results)
		}
		if !loose(a, t) {
			return fmt.Errorf("lir-verify: v%d (%s) arg %d has type %s, want %s", v.ID, v.Op, i, a.Type, t)
		}
	}
	if !s.anyRes && v.Type != s.res {
		return fmt.Errorf("lir-verify: v%d (%s) has result type %s, want %s", v.ID, v.Op, v.Type, s.res)
	}
	if s.anyRes && v.Type == TVoid {
		return fmt.Errorf("lir-verify: v%d (%s) has void result", v.ID, v.Op)
	}
	return nil
}

func checkArity(v *Value, n int) error {
	if len(v.Args) != n {
		return fmt.Errorf("lir-verify: v%d (%s) has %d args, want %d", v.ID, v.Op, len(v.Args), n)
	}
	return nil
}

func checkNonVoidArgs(v *Value) error {
	for i, a := range v.Args {
		if a.Type == TVoid {
			return fmt.Errorf("lir-verify: v%d (%s) arg %d is the void value v%d (%s)", v.ID, v.Op, i, a.ID, a.Op)
		}
	}
	return nil
}
