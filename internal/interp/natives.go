package interp

import (
	"fmt"

	"replayopt/internal/dex"
	"replayopt/internal/rt"
)

// NativeImpl executes one native call. It returns the raw result and the
// cycle cost of the native body (the bridge cost is charged separately).
type NativeImpl func(args []uint64) (ret uint64, cost uint64, err error)

// NativeState holds the mutable world outside the managed heap: the PRNG,
// the clock, and I/O counters. It is shared between interpreter and machine
// executor so online runs behave identically across tiers.
type NativeState struct {
	rngState uint64
	clockMS  int64

	// Inputs is the scripted user-input stream consumed by IO.readInput;
	// empty means "no input pending" (-1).
	Inputs []int64
	inPos  int

	// I/O effect counters — the observable side effects of the outside
	// world. Tests assert on them; the device model charges them.
	PrintedInts   []int64
	PrintedFloats []float64
	FramesDrawn   int
	SoundsPlayed  int
	PacketsSent   int
}

// NewNativeState returns a NativeState with a seeded PRNG.
func NewNativeState(seed uint64) *NativeState {
	return &NativeState{rngState: seed*2862933555777941757 + 3037000493, clockMS: 1_600_000_000_000}
}

func (ns *NativeState) nextRand() uint64 {
	// xorshift64*: deterministic, seedable, no external deps.
	x := ns.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	ns.rngState = x
	return x * 2685821657736338717
}

// BindNatives maps prog's native table to implementations over ns. An
// unknown native is bound to an implementation that fails when called.
func BindNatives(prog *dex.Program, ns *NativeState) []NativeImpl {
	impls := make([]NativeImpl, len(prog.Natives))
	for i, n := range prog.Natives {
		impls[i] = stdImpl(n, ns)
	}
	return impls
}

func stdImpl(n *dex.Native, ns *NativeState) NativeImpl {
	if k := n.Intrinsic; k != dex.IntrinsicNone {
		return func(args []uint64) (uint64, uint64, error) {
			var b uint64
			if len(args) > 1 {
				b = args[1]
			}
			v, ok := k.Eval(args[0], b)
			if !ok {
				return 0, 0, fmt.Errorf("interp: unknown intrinsic %d of native %s", k, n.Name)
			}
			return v, nativeIntrinsicCost[k], nil
		}
	}
	switch n.Name {
	case "System.clockMillis":
		return func([]uint64) (uint64, uint64, error) {
			ns.clockMS += 7 // the clock advances between observations
			return uint64(ns.clockMS), 30, nil
		}
	case "Random.nextInt":
		return func(args []uint64) (uint64, uint64, error) {
			bound := int64(args[0])
			if bound <= 0 {
				return 0, 30, &rt.Trap{Kind: rt.TrapNegSize}
			}
			return uint64(int64(ns.nextRand()%uint64(bound)) % bound), 30, nil
		}
	case "Random.nextFloat":
		return func([]uint64) (uint64, uint64, error) {
			return rt.F2U(float64(ns.nextRand()>>11) / float64(1<<53)), 30, nil
		}
	case "IO.printInt":
		return func(args []uint64) (uint64, uint64, error) {
			ns.PrintedInts = append(ns.PrintedInts, int64(args[0]))
			return 0, 400, nil
		}
	case "IO.printFloat":
		return func(args []uint64) (uint64, uint64, error) {
			ns.PrintedFloats = append(ns.PrintedFloats, rt.U2F(args[0]))
			return 0, 400, nil
		}
	case "IO.drawFrame":
		return func([]uint64) (uint64, uint64, error) {
			ns.FramesDrawn++
			return 0, 2500, nil
		}
	case "IO.playSound":
		return func([]uint64) (uint64, uint64, error) {
			ns.SoundsPlayed++
			return 0, 800, nil
		}
	case "IO.readInput":
		return func([]uint64) (uint64, uint64, error) {
			if ns.inPos < len(ns.Inputs) {
				v := ns.Inputs[ns.inPos]
				ns.inPos++
				return uint64(v), 600, nil
			}
			return uint64(^uint64(0)), 600, nil // -1: no input
		}
	case "Net.send":
		return func([]uint64) (uint64, uint64, error) {
			ns.PacketsSent++
			return 0, 3000, nil
		}
	case "Sys.mix":
		// Deterministic splitmix-style bit mixer standing in for an opaque
		// JNI helper: replay-safe in behavior, but the compiler cannot see
		// through it, so §3.1 still blocklists it (EffJNI in internal/sa).
		return func(args []uint64) (uint64, uint64, error) {
			z := args[0] + 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31), 90, nil
		}
	}
	return func([]uint64) (uint64, uint64, error) {
		return 0, 0, fmt.Errorf("interp: no implementation for native %s", n.Name)
	}
}
