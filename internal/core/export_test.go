package core

import "replayopt/internal/machine"

// Test-only access for the registry-wide tests in package core_test, which
// can import internal/apps (package core cannot: apps builds core.Apps).

// OnlineCycles is install's whole-program measurement.
var OnlineCycles = onlineCycles

// O3Image returns the -O3 image prepare built and install measures.
func (p *Prepared) O3Image() *machine.Program { return p.o3 }
