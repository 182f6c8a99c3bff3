// Package sa is the interprocedural static-analysis layer: a call graph
// built with CHA (class-hierarchy-restricted virtual targets) refined by RTA
// (only instantiated receiver classes dispatch), an SCC-condensed fixpoint
// over a method-effect lattice, and shortest witness call chains explaining
// every non-replayable verdict.
//
// It replaces the paper's boolean §3.1 replayability blocklist — "any I/O,
// non-determinism, JNI, or exception anywhere in the call tree disqualifies
// the region" — with a precise characterization of *which* effects each
// method can have, over a much smaller (but still sound) call graph. Three
// consumers query it: Algorithm 1's region selection (internal/profile),
// the optimizing backend's guard-elimination decisions (internal/lir), and
// the verification-map builder (internal/verify). salint effects exposes the
// verdicts as a diagnostics CLI.
//
// The package depends only on internal/dex so every other layer can import
// it freely.
package sa

import (
	"sort"
	"strings"

	"replayopt/internal/dex"
)

// Effect is a bitmask over the method-effect lattice. Join is bitwise OR;
// the partial order is bit inclusion:
//
//	Pure ⊑ ReadOnly ⊑ LocalWrite ⊑ EscapingWrite ⊑ {IO, NonDet, JNI, MayThrow}
//
// The first four levels order the memory footprint (Class); the four hazard
// bits are incomparable top elements — any one of them makes a method
// non-replayable under §3.1.
type Effect uint16

// Effect bits.
const (
	// EffReadHeap: reads heap or static state (fields, arrays, globals).
	EffReadHeap Effect = 1 << iota
	// EffWriteLocal: writes only memory the method itself allocated and
	// that provably does not escape (not returned, thrown, stored into
	// another object, or passed to a callee).
	EffWriteLocal
	// EffWriteEscaping: writes memory visible after the method returns —
	// statics, fields/elements of parameters, or escaped allocations.
	EffWriteEscaping
	// EffAlloc: allocates managed memory (may trigger a GC).
	EffAlloc
	// EffMayThrow: may execute OpThrow (§3.1's exception blocklist).
	EffMayThrow
	// EffJNI: calls a native that is deterministic but not
	// intrinsic-replaceable — the §3.1 JNI blocklist.
	EffJNI
	// EffIO: calls an I/O native.
	EffIO
	// EffNonDet: calls a clock/PRNG native.
	EffNonDet
)

// EffPure is the lattice bottom: no effects at all.
const EffPure Effect = 0

// EffHazards are the bits that make a method non-replayable.
const EffHazards = EffMayThrow | EffJNI | EffIO | EffNonDet

// hazardOrder lists the hazard bits in reporting order.
var hazardOrder = [...]Effect{EffIO, EffNonDet, EffJNI, EffMayThrow}

// Class is the memory-footprint level of an effect set (the totally ordered
// part of the lattice).
type Class uint8

// Classes, from bottom to top.
const (
	ClassPure Class = iota
	ClassReadOnly
	ClassLocalWrite
	ClassEscapingWrite
)

func (c Class) String() string {
	return [...]string{"Pure", "ReadOnly", "LocalWrite", "EscapingWrite"}[c]
}

// Class returns the memory-footprint level of e.
func (e Effect) Class() Class {
	switch {
	case e&EffWriteEscaping != 0:
		return ClassEscapingWrite
	case e&EffWriteLocal != 0:
		return ClassLocalWrite
	case e&EffReadHeap != 0:
		return ClassReadOnly
	default:
		return ClassPure
	}
}

// Join is the lattice join (bitwise union).
func (e Effect) Join(o Effect) Effect { return e | o }

// Leq reports whether e ⊑ o (bit inclusion).
func (e Effect) Leq(o Effect) bool { return e&^o == 0 }

// Replayable reports whether e carries no §3.1 hazard. Writes — local or
// escaping — do not disqualify a region: escaping writes are exactly what
// the §3.4 verification map records and checks.
func (e Effect) Replayable() bool { return e&EffHazards == 0 }

// Hazards returns the hazard bits of e in reporting order.
func (e Effect) Hazards() []Effect {
	var out []Effect
	for _, h := range hazardOrder {
		if e&h != 0 {
			out = append(out, h)
		}
	}
	return out
}

// BitName returns the report name of a single effect bit ("IO", "NonDet",
// "MayThrow", ...). Compound effect sets render via String.
func (e Effect) BitName() string { return bitName(e) }

// bitNames maps single effect bits to their report names.
func bitName(e Effect) string {
	switch e {
	case EffReadHeap:
		return "ReadHeap"
	case EffWriteLocal:
		return "LocalWrite"
	case EffWriteEscaping:
		return "EscapingWrite"
	case EffAlloc:
		return "Alloc"
	case EffMayThrow:
		return "MayThrow"
	case EffJNI:
		return "JNI"
	case EffIO:
		return "IO"
	case EffNonDet:
		return "NonDet"
	}
	return "?"
}

// String renders the effect set compactly, e.g. "ReadOnly" or
// "EscapingWrite+Alloc|IO,NonDet". Pure is "Pure".
func (e Effect) String() string {
	if e == EffPure {
		return "Pure"
	}
	var b strings.Builder
	b.WriteString(e.Class().String())
	if e&EffAlloc != 0 {
		b.WriteString("+Alloc")
	}
	if hz := e.Hazards(); len(hz) > 0 {
		b.WriteByte('|')
		for i, h := range hz {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(bitName(h))
		}
	}
	return b.String()
}

// sortMethods sorts a method-id slice ascending (deterministic reporting).
func sortMethods(ids []dex.MethodID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
