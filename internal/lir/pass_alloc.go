package lir

// stackalloc: scalar replacement of non-escaping allocations (the alias
// analysis's escape verdicts cashed in). An object or constant-length array
// whose every use is a direct field/element access in its own block is
// invisible outside that block: the pass deletes the allocation, its bounds
// checks, and its stores, and rewrites its loads to the stored SSA values
// (zero constants for never-stored scalar slots — the runtime zeroes fresh
// allocations). The demoted site never reaches the machine allocator, which
// is both the cycle win (allocation + GC-clock charge gone) and the vmap win
// (fewer recorded stores; verify.Build elides the site's extent via the same
// escape verdicts, so the shifted heap layout stays checkable).
//
// Removing OpNewArray/OpNewObject and stores removes observable ops, so the
// strict translation validator answers Unverified at worst for this pass —
// never Rejected (a rejection needs paired integer-constant disagreement, and
// load hashes are never constants).

func init() {
	register(&PassInfo{
		Name: "stackalloc",
		Doc:  "demote non-escaping allocation sites to SSA values (scalar replacement; alias analysis proves the site local)",
		Run: func(f *Function, ctx *PassContext, _ map[string]int) error {
			runStackAlloc(f, ctx)
			runDCE(f)
			return nil
		},
	})
}

// maxDemoteLen bounds the constant array length stackalloc will demote; each
// element becomes one tracked slot.
const maxDemoteLen = 64

// allocPlan is one validated demotion: the site and the in-order rewrites.
type allocPlan struct {
	site *Value
	// loads maps each load user to its replacement (nil = zero constant of
	// the load's type); loadOrder fixes the program-order application
	// sequence. Every other user (stores, checks, the site) dies.
	loads     map[*Value]*Value
	loadOrder []*Value
	dead      []*Value
	arrLen    int64 // -1 for objects
}

func runStackAlloc(f *Function, ctx *PassContext) {
	fx := AnalyzeAlias(f, ctx.Static)
	// Use lists in program order (SSA has no def-use chains).
	users := map[*Value][]*Value{}
	phiUser := map[*Value]bool{}
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			for _, a := range p.Args {
				phiUser[a] = true
			}
		}
		for _, v := range b.Insns {
			for _, a := range v.Args {
				users[a] = append(users[a], v)
			}
		}
	}
	var plans []*allocPlan
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op != OpNewArray && v.Op != OpNewObject {
				continue
			}
			if fx.Escapes(v) || phiUser[v] {
				continue
			}
			if p := planDemotion(v, users[v]); p != nil {
				plans = append(plans, p)
			}
		}
	}
	// A replaced load can itself be another plan's replacement (one demoted
	// site's load stored into another site); the substitution follows the
	// chain, so no removed value is ever re-installed as an argument.
	var subst substitution
	dead := map[*Value]bool{}
	for _, p := range plans {
		if ctx.Tracing() {
			ctx.Note("stackalloc.demote", NoteAnchor(p.site.Block, p.site),
				KV("uses", int64(len(p.dead)+len(p.loads))), KV("len", p.arrLen))
		}
		for _, ld := range p.loadOrder {
			if repl := p.loads[ld]; repl != nil {
				subst.add(ld, repl)
				dead[ld] = true
				continue
			}
			// Never-stored scalar slot: the runtime zeroes fresh memory.
			if ld.Type == TFloat {
				replaceWithConstFloat(ld, 0)
			} else {
				replaceWithConstInt(ld, 0)
			}
		}
		for _, d := range p.dead {
			dead[d] = true
		}
	}
	subst.apply(f)
	removeValues(f, dead)
}

// planDemotion validates one allocation site against the single-block scalar
// replacement rules and, when every use checks out, simulates the block in
// program order to resolve each load. Returns nil when any use disqualifies
// the site.
func planDemotion(site *Value, uses []*Value) *allocPlan {
	isArr := site.Op == OpNewArray
	n := int64(-1)
	if isArr {
		c, ok := isConstInt(site.Args[0])
		if !ok || c < 0 || c > maxDemoteLen {
			return nil
		}
		n = c
	}
	// slotOf maps a use to its demoted slot; ok=false disqualifies.
	slotOf := func(u *Value) (int64, bool) {
		if u.Block != site.Block {
			return 0, false // single-block rule: simulation order is total
		}
		switch u.Op {
		case OpFieldLoad:
			return u.Slot, !isArr && u.Args[0] == site
		case OpFieldStore:
			return u.Slot, !isArr && u.Args[0] == site && u.Args[1] != site
		case OpArrLen:
			return 0, isArr && u.Args[0] == site
		case OpBoundsCheck, OpArrLoad, OpArrStore:
			if !isArr || u.Args[0] != site {
				return 0, false
			}
			if u.Op == OpArrStore && u.Args[2] == site {
				return 0, false
			}
			c, ok := isConstInt(u.Args[1])
			if !ok || c < 0 || c >= n {
				return 0, false
			}
			return c, true
		}
		return 0, false // call arg, return, throw, stored as a value, ...
	}
	for _, u := range uses {
		if _, ok := slotOf(u); !ok {
			return nil
		}
	}
	// Simulate in program order. Loads of a stored slot take that SSA value
	// (types must agree, per the strict validator's signature rules); loads
	// of a never-stored scalar slot take zero; ref slots must be stored
	// first (a null-ref constant has no TRef representation).
	p := &allocPlan{site: site, loads: map[*Value]*Value{}, arrLen: n}
	cur := map[int64]*Value{}
	seen := false
	for _, u := range site.Block.Insns {
		if u == site {
			seen = true
			continue
		}
		isUse := false
		for _, a := range u.Args {
			if a == site {
				isUse = true
				break
			}
		}
		if !isUse {
			continue
		}
		if !seen {
			return nil // a use before the def never executes meaningfully
		}
		slot, _ := slotOf(u)
		switch u.Op {
		case OpFieldStore:
			cur[slot] = u.Args[1]
			p.dead = append(p.dead, u)
		case OpArrStore:
			cur[slot] = u.Args[2]
			p.dead = append(p.dead, u)
		case OpFieldLoad, OpArrLoad:
			if v := cur[slot]; v != nil {
				if v.Type != u.Type {
					return nil
				}
				p.loads[u] = v
			} else {
				if u.Type == TRef {
					return nil
				}
				p.loads[u] = nil
			}
			p.loadOrder = append(p.loadOrder, u)
		case OpArrLen:
			lenConst := site.Args[0]
			if lenConst.Type != u.Type {
				return nil
			}
			p.loads[u] = lenConst
			p.loadOrder = append(p.loadOrder, u)
		case OpBoundsCheck:
			p.dead = append(p.dead, u)
		}
	}
	p.dead = append(p.dead, site)
	return p
}
