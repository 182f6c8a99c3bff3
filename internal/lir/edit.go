package lir

// IR edit discipline (DESIGN.md §5). An edit made inside a loop over blocks
// or values costs what it touches: a pass records value replacements in one
// substitution, reads arguments through it, and applies it once, and it
// removes values from the block it is visiting with removeFromBlock.
// removeValues sweeps the whole function and belongs outside such loops;
// edit_test.go enforces both rules.

// substitution is the IR's one deferred use-replacement. add records that
// every use of old is to read new; a pass resolves the arguments it reads
// (resolve, resolveArgs) and applies the substitution once, where replacing
// each value as it arises would sweep the whole function once per
// replacement. A replacement may name a value that is replaced later, as in
// a phi whose only input is another trivial phi or an inlined callee that
// returns its parameter; resolve follows such chains to their end, so the
// result is what eager replacement in the same order would have left.
type substitution struct {
	// from and to are indexed by Value.ID: from[id] is replaced by to[id].
	// They are empty when no replacement is pending.
	from, to []*Value
	// work counts the argument slots rewritten and the chain links
	// followed, the cost the edit-discipline tests bound.
	work int
}

// add records that uses of old read new, or what new is itself replaced by.
func (s *substitution) add(old, new *Value) {
	if new = s.resolve(new); new == old {
		return // replacing a value by itself changes nothing
	}
	if grow := old.ID + 1 - len(s.from); grow > 0 {
		s.from = append(s.from, make([]*Value, grow)...)
		s.to = append(s.to, make([]*Value, grow)...)
	}
	s.from[old.ID], s.to[old.ID] = old, new
}

func (s *substitution) replaced(v *Value) bool {
	return v != nil && v.ID >= 0 && v.ID < len(s.from) && s.from[v.ID] == v
}

// resolve returns the value v's uses read under s: the end of v's chain of
// replacements. It shortens the chain it walks, so repeated resolves stay
// linear in the number of replacements.
func (s *substitution) resolve(v *Value) *Value {
	if !s.replaced(v) {
		return v
	}
	end := v
	for s.replaced(end) {
		end = s.to[end.ID]
		s.work++
	}
	for v != end {
		next := s.to[v.ID]
		s.to[v.ID] = end
		v = next
	}
	return end
}

// resolveArgs rewrites v's arguments through s in place.
func (s *substitution) resolveArgs(v *Value) {
	if len(s.from) == 0 {
		return
	}
	for i, a := range v.Args {
		if r := s.resolve(a); r != a {
			v.Args[i] = r
			s.work++
		}
	}
}

// apply rewrites every argument of f through the pending replacements and
// clears them.
func (s *substitution) apply(f *Function) {
	if len(s.from) == 0 {
		return
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			s.resolveArgs(v)
		}
		for _, v := range b.Insns {
			s.resolveArgs(v)
		}
	}
	s.from, s.to = s.from[:0], s.to[:0]
}

// removeFromBlock deletes the dead values from b's phi and instruction
// lists. It compacts each list in place, keeping order and capacity, exactly
// as removeValues does for every block: a caller ranging over b.Insns while
// it removes sees the same elements either way.
func removeFromBlock(b *Block, dead map[*Value]bool) {
	if len(dead) == 0 {
		return
	}
	if len(b.Phis) > 0 {
		kept := b.Phis[:0]
		for _, v := range b.Phis {
			if !dead[v] {
				kept = append(kept, v)
			}
		}
		b.Phis = kept
	}
	kept := b.Insns[:0]
	for _, v := range b.Insns {
		if !dead[v] {
			kept = append(kept, v)
		}
	}
	b.Insns = kept
}

// removeValues deletes the given values from their blocks' lists: one sweep
// over the whole function.
func removeValues(f *Function, dead map[*Value]bool) {
	if len(dead) == 0 {
		return
	}
	for _, b := range f.Blocks {
		removeFromBlock(b, dead)
	}
}
