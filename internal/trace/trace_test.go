package trace

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{ALU: "alu", Load: "load", Store: "store", Branch: "branch", Kind(99): "?"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestIsMem(t *testing.T) {
	if (&Inst{Kind: ALU}).IsMem() || (&Inst{Kind: Branch}).IsMem() {
		t.Error("ALU/Branch must not be memory instructions")
	}
	if !(&Inst{Kind: Load}).IsMem() || !(&Inst{Kind: Store}).IsMem() {
		t.Error("Load/Store must be memory instructions")
	}
}

// TestInstSize pins the packed field order: recordings hold one Inst per
// instruction, and the runner's recording budget charges this size.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 40 {
		t.Errorf("sizeof(Inst) = %d bytes, want 40", n)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1234, 64) != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", LineAddr(0x1234, 64))
	}
	// Property: result is aligned and within one line of the input.
	f := func(addr uint64) bool {
		la := LineAddr(addr, 64)
		return la%64 == 0 && la <= addr && addr-la < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSliceSource(t *testing.T) {
	src := &SliceSource{Insts: []Inst{{PC: 1}, {PC: 2}, {PC: 3}}}
	var in Inst
	var pcs []uint64
	for src.Next(&in) {
		pcs = append(pcs, in.PC)
	}
	if len(pcs) != 3 || pcs[0] != 1 || pcs[2] != 3 {
		t.Errorf("unexpected replay %v", pcs)
	}
	if src.Next(&in) {
		t.Error("exhausted source must return false")
	}
	src.Reset()
	if !src.Next(&in) || in.PC != 1 {
		t.Error("Reset must rewind")
	}
}

func TestLimit(t *testing.T) {
	src := &SliceSource{Insts: make([]Inst, 10)}
	lim := &Limit{Src: src, N: 4}
	var in Inst
	n := 0
	for lim.Next(&in) {
		n++
	}
	if n != 4 {
		t.Errorf("Limit produced %d instructions, want 4", n)
	}
}

func TestLimitShortSource(t *testing.T) {
	src := &SliceSource{Insts: make([]Inst, 2)}
	lim := &Limit{Src: src, N: 100}
	var in Inst
	n := 0
	for lim.Next(&in) {
		n++
	}
	if n != 2 {
		t.Errorf("Limit over short source produced %d, want 2", n)
	}
}
