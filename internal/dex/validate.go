package dex

import "fmt"

// ValidationError reports a malformed program.
type ValidationError struct {
	Method string
	PC     int
	Msg    string
}

func (e *ValidationError) Error() string {
	if e.Method == "" {
		return "dex: " + e.Msg
	}
	return fmt.Sprintf("dex: %s@%d: %s", e.Method, e.PC, e.Msg)
}

// Validate checks structural well-formedness: register indices in range,
// branch targets valid, symbol indices valid, terminated methods, and
// argument counts matching callee signatures. It is run by every frontend
// and by tests before execution.
func (p *Program) Validate() error {
	if int(p.Entry) < 0 || int(p.Entry) >= len(p.Methods) {
		return &ValidationError{Msg: fmt.Sprintf("entry method %d out of range", p.Entry)}
	}
	for _, c := range p.Classes {
		if c.Super != NoClass && (int(c.Super) < 0 || int(c.Super) >= len(p.Classes)) {
			return &ValidationError{Msg: fmt.Sprintf("class %s: bad super %d", c.Name, c.Super)}
		}
		for _, mid := range c.VTable {
			if int(mid) < 0 || int(mid) >= len(p.Methods) {
				return &ValidationError{Msg: fmt.Sprintf("class %s: bad vtable entry %d", c.Name, mid)}
			}
		}
	}
	for _, m := range p.Methods {
		if err := p.validateMethod(m); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateMethod(m *Method) error {
	errf := func(pc int, format string, args ...any) error {
		return &ValidationError{Method: m.Name, PC: pc, Msg: fmt.Sprintf(format, args...)}
	}
	if m.NumArgs > m.NumRegs {
		return errf(-1, "NumArgs %d > NumRegs %d", m.NumArgs, m.NumRegs)
	}
	if len(m.Params) != m.NumArgs {
		return errf(-1, "Params len %d != NumArgs %d", len(m.Params), m.NumArgs)
	}
	if len(m.Code) == 0 {
		return errf(-1, "empty body")
	}
	if last := m.Code[len(m.Code)-1].Op; !last.IsTerminator() {
		return errf(len(m.Code)-1, "method falls off the end (%s)", last)
	}
	checkReg := func(pc, r int) error {
		if r < 0 || r >= m.NumRegs {
			return errf(pc, "register v%d out of range [0,%d)", r, m.NumRegs)
		}
		return nil
	}
	for pc, in := range m.Code {
		if int(in.Op) >= int(opCount) {
			return errf(pc, "unknown opcode %d", in.Op)
		}
		// Register operand checks by shape.
		switch in.Op {
		case OpNop:
		case OpConstInt, OpConstFloat:
			if err := checkReg(pc, in.A); err != nil {
				return err
			}
		case OpMove, OpNegInt, OpNegFloat, OpIntToFloat, OpFloatToInt, OpArrayLen,
			OpNewArrayInt, OpNewArrayFloat, OpNewArrayRef:
			if err := checkReg(pc, in.A); err != nil {
				return err
			}
			if err := checkReg(pc, in.B); err != nil {
				return err
			}
		case OpGoto:
		case OpReturnVoid:
		case OpReturn, OpThrow:
			if err := checkReg(pc, in.A); err != nil {
				return err
			}
		case OpNewInstance:
			if err := checkReg(pc, in.A); err != nil {
				return err
			}
			if in.Sym < 0 || in.Sym >= len(p.Classes) {
				return errf(pc, "new-instance of unknown class %d", in.Sym)
			}
		case OpSLoadInt, OpSLoadFloat, OpSLoadRef, OpSStoreInt, OpSStoreFloat, OpSStoreRef:
			if err := checkReg(pc, in.A); err != nil {
				return err
			}
			if in.Imm < 0 || int(in.Imm) >= len(p.Globals) {
				return errf(pc, "global slot %d out of range", in.Imm)
			}
		case OpFLoadInt, OpFLoadFloat, OpFLoadRef, OpFStoreInt, OpFStoreFloat, OpFStoreRef:
			if err := checkReg(pc, in.A); err != nil {
				return err
			}
			if err := checkReg(pc, in.B); err != nil {
				return err
			}
			if in.Imm < 0 {
				return errf(pc, "negative field slot %d", in.Imm)
			}
		case OpInvokeStatic, OpInvokeVirtual:
			if in.Sym < 0 || in.Sym >= len(p.Methods) {
				return errf(pc, "invoke of unknown method %d", in.Sym)
			}
			callee := p.Methods[in.Sym]
			if len(in.Args) != callee.NumArgs {
				return errf(pc, "call to %s with %d args, want %d", callee.Name, len(in.Args), callee.NumArgs)
			}
			if in.Op == OpInvokeVirtual && !callee.Virtual {
				return errf(pc, "invoke-virtual of non-virtual %s", callee.Name)
			}
			for _, r := range in.Args {
				if err := checkReg(pc, r); err != nil {
					return err
				}
			}
			if callee.Ret != KindVoid {
				if err := checkReg(pc, in.A); err != nil {
					return err
				}
			}
		case OpInvokeNative:
			if in.Sym < 0 || in.Sym >= len(p.Natives) {
				return errf(pc, "invoke of unknown native %d", in.Sym)
			}
			n := p.Natives[in.Sym]
			if len(in.Args) != len(n.Params) {
				return errf(pc, "call to native %s with %d args, want %d", n.Name, len(in.Args), len(n.Params))
			}
			for _, r := range in.Args {
				if err := checkReg(pc, r); err != nil {
					return err
				}
			}
			if n.Ret != KindVoid {
				if err := checkReg(pc, in.A); err != nil {
					return err
				}
			}
		default:
			// Three-address arithmetic, array accesses, compares, branches.
			if err := checkReg(pc, in.B); err != nil {
				return err
			}
			if !in.Op.IsBranch() {
				if err := checkReg(pc, in.A); err != nil {
					return err
				}
			}
			switch in.Op {
			case OpAddInt, OpSubInt, OpMulInt, OpDivInt, OpRemInt, OpAndInt, OpOrInt,
				OpXorInt, OpShlInt, OpShrInt, OpAddFloat, OpSubFloat, OpMulFloat,
				OpDivFloat, OpCmpFloat, OpALoadInt, OpALoadFloat, OpALoadRef,
				OpAStoreInt, OpAStoreFloat, OpAStoreRef,
				OpIfEq, OpIfNe, OpIfLt, OpIfLe, OpIfGt, OpIfGe:
				if err := checkReg(pc, in.C); err != nil {
					return err
				}
			}
		}
		// Branch target checks.
		if in.Op == OpGoto || in.Op.IsBranch() {
			if in.Imm < 0 || int(in.Imm) >= len(m.Code) {
				return errf(pc, "branch target %d out of range [0,%d)", in.Imm, len(m.Code))
			}
		}
	}
	return nil
}

// Callees returns the static-call and declared-virtual-call method targets
// of m, deduplicated, in first-appearance order. Used by Algorithm 1's
// region walk.
func (p *Program) Callees(m *Method) []MethodID {
	seen := make(map[MethodID]bool)
	var out []MethodID
	for _, in := range m.Code {
		if in.Op == OpInvokeStatic || in.Op == OpInvokeVirtual {
			id := MethodID(in.Sym)
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
			// A virtual call may dispatch to any override; include them.
			if in.Op == OpInvokeVirtual {
				decl := p.Methods[in.Sym]
				for _, c := range p.Classes {
					if decl.VSlot < len(c.VTable) {
						t := c.VTable[decl.VSlot]
						if !seen[t] {
							seen[t] = true
							out = append(out, t)
						}
					}
				}
			}
		}
	}
	return out
}
