package machine

// Hooks for the external tests, which compile real apps (the compilers
// import this package, so those tests cannot live inside it).

// StallTable returns f's read-after-write stall table.
func (f *Fn) StallTable() []uint8 {
	return f.stallTable()
}

// Reads returns the registers in reads.
func (in *Insn) Reads() []int { return in.reads(nil) }

// Writes returns the register in defines, or -1.
func (in *Insn) Writes() int { return in.writes() }

// Latency is op's result latency.
func Latency(op Op) uint64 { return opLatency[op] }
