package tpc

import "divlab/internal/trace"

// TaintUnit is P1's decoder-side taint propagation circuit (Sec. IV-B1):
// a bit vector over the logical registers. A seed register is marked; any
// instruction with a tainted source taints its destination, otherwise the
// destination is cleared. Load instructions with a tainted address register
// are candidates for the pointer patterns.
type TaintUnit struct {
	bits  uint64 // one bit per logical register (NumRegs <= 64)
	armed bool
}

// Arm clears the vector and seeds it with reg.
func (t *TaintUnit) Arm(reg trace.Reg) {
	t.bits = 0
	if reg != 0 {
		t.bits = 1 << uint(reg)
	}
	t.armed = true
}

// Disarm stops propagation.
func (t *TaintUnit) Disarm() { t.armed = false; t.bits = 0 }

// Tainted reports whether reg currently carries taint.
func (t *TaintUnit) Tainted(reg trace.Reg) bool {
	return reg != 0 && t.bits&(1<<uint(reg)) != 0
}

// Step propagates taint through one instruction and reports whether the
// instruction consumed taint (any source tainted).
func (t *TaintUnit) Step(in *trace.Inst) (consumed bool) {
	if !t.armed {
		return false
	}
	consumed = t.Tainted(in.Src1) || t.Tainted(in.Src2)
	if in.Dst != 0 {
		if consumed {
			t.bits |= 1 << uint(in.Dst)
		} else {
			t.bits &^= 1 << uint(in.Dst)
		}
	}
	return consumed
}
