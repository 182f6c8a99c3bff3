package interp

import (
	"errors"
	"math"

	"replayopt/internal/dex"
	"replayopt/internal/rt"
)

// ErrTimeout is returned when execution exceeds the cycle budget.
var ErrTimeout = errors.New("interp: cycle budget exhausted")

// ErrStackOverflow is returned when the call stack exceeds its depth limit.
var ErrStackOverflow = errors.New("interp: call stack overflow")

// maxDepth bounds managed recursion, interpreted and compiled frames
// together.
const maxDepth = 512

// costGCCollection is charged when a safepoint triggers a simulated
// collection, in either tier.
const costGCCollection = 120_000

// Clock is the one cycle clock of both execution tiers: the cycles, the
// budget, the sampling grid, the managed call stack and the running native.
// An Env embeds one; the machine executor charges its fallback Env's, so a
// call across the interpreter bridge runs on the caller's clock. The zero
// Clock is in managed code with no budget and no sampler.
type Clock struct {
	// Cycles accumulates the deterministic cost-model time.
	Cycles uint64
	// MaxCycles aborts runaway execution with ErrTimeout; 0 means no limit.
	MaxCycles uint64

	// SamplePeriod > 0 enables the sampling profiler.
	SamplePeriod uint64
	Sampler      Sampler
	nextSample   uint64

	stack []dex.MethodID
	// native is the running native's ID plus one; 0 in managed code.
	native dex.NativeID
}

// Charge adds n cycles. It is small enough to inline into both tiers'
// per-op paths: below slowAt (see SlowAt) it only adds, and from slowAt on
// chargeSlow samples and checks the budget exactly, so any slowAt at or
// below the true threshold gives the same cycles, samples and errors.
func (c *Clock) Charge(n, slowAt uint64) error {
	c.Cycles += n
	if c.Cycles >= slowAt {
		return c.chargeSlow()
	}
	return nil
}

// SlowAt returns the cycle count from which Charge must call chargeSlow: 0
// with a sampler attached, since the sampler sees every charge; one past
// MaxCycles with a budget; and never otherwise. A frame computes it once.
func (c *Clock) SlowAt() uint64 {
	if c.SamplePeriod > 0 && c.Sampler != nil {
		return 0
	}
	if c.MaxCycles > 0 {
		return c.MaxCycles + 1 // MaxUint64 wraps to 0: every charge is checked
	}
	return math.MaxUint64
}

func (c *Clock) chargeSlow() error {
	if c.SamplePeriod > 0 && c.Sampler != nil && c.Cycles >= c.nextSample {
		c.Sampler.Sample(c.stack, c.native-1)
		for c.nextSample <= c.Cycles {
			c.nextSample += c.SamplePeriod
		}
	}
	if c.MaxCycles > 0 && c.Cycles > c.MaxCycles {
		return ErrTimeout
	}
	return nil
}

// Push enters a frame of method id, or fails with ErrStackOverflow at the
// depth bound. Each tier decides whether its frame cost is charged before
// or after the push, since that decides which method a sample names.
func (c *Clock) Push(id dex.MethodID) error {
	if len(c.stack) >= maxDepth {
		return ErrStackOverflow
	}
	c.stack = append(c.stack, id)
	return nil
}

// Pop leaves the innermost frame.
func (c *Clock) Pop() { c.stack = c.stack[:len(c.stack)-1] }

// Safepoint charges a safepoint check of cost n against proc, plus
// costGCCollection when the check triggers a collection.
func (c *Clock) Safepoint(proc *rt.Process, n, slowAt uint64) error {
	if err := c.Charge(n, slowAt); err != nil {
		return err
	}
	if proc.Safepoint() {
		return c.Charge(costGCCollection, slowAt)
	}
	return nil
}

// CallNative calls natives[sym] with args: it charges the managed-to-native
// bridge, runs the native and charges the native's own cost to it, so a
// sample taken there names the native.
func (c *Clock) CallNative(natives []NativeImpl, sym int, args []uint64, bridge, slowAt uint64) (uint64, error) {
	if err := c.Charge(bridge, slowAt); err != nil {
		return 0, err
	}
	ret, n, err := natives[sym](args)
	if err != nil {
		return 0, err
	}
	c.native = dex.NativeID(sym) + 1
	err = c.Charge(n, slowAt)
	c.native = 0
	return ret, err
}
