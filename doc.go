// Package replayopt is a from-scratch Go reproduction of "Developer and
// User-Transparent Compiler Optimization for Interactive Applications"
// (Mpeis, Petoumenos, Hazelwood, Leather — PLDI 2021): replay-based offline
// iterative compilation for interactive mobile applications.
//
// The paper's system — and every substrate it depends on — is implemented
// here as a closed, deterministic simulation: a Dalvik-like bytecode and
// runtime whose heap lives in simulated paged memory, an ART-like baseline
// compiler, an LLVM-like SSA optimizer with a large and partially unsafe
// pass space, fork/Copy-on-Write page-level capture, an ASLR-aware replay
// loader, replay-built verification maps and type profiles, and a genetic
// search over the optimization space.
//
// Start with DESIGN.md for the system inventory, README.md for usage, and
// EXPERIMENTS.md for the paper-vs-measured record. cmd/experiments
// regenerates every table and figure:
//
//	go run ./cmd/experiments -scale quick
package replayopt
