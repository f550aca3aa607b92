// Package trace defines the dynamic instruction record that workloads emit
// and the core timing model consumes. It is the narrow waist between the
// synthetic benchmark generators and the simulator: everything the pipeline,
// the caches, and the prefetchers can observe about a program flows through
// an Inst value.
package trace

// Kind classifies a dynamic instruction.
type Kind uint8

const (
	// ALU is any non-memory, non-branch operation.
	ALU Kind = iota
	// Load reads memory at Addr into Dst.
	Load
	// Store writes memory at Addr.
	Store
	// Branch is a control-flow instruction; Taken/Target describe the outcome.
	Branch
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	}
	return "?"
}

// Reg identifies a logical register. Register 0 is the hardwired zero
// register: writes to it are discarded and it never carries a dependency,
// which lets generators emit independent instructions without inventing
// fresh register names.
type Reg uint8

// NumRegs is the size of the logical register file visible to the taint
// unit and the dependency tracker.
const NumRegs = 64

// Inst is one dynamic instruction. The zero value is a harmless ALU no-op.
// The three addresses come first and the one-byte fields after them, which
// packs an Inst into 40 bytes; recordings hold millions of them.
type Inst struct {
	// PC is the static instruction address. Prefetchers key their tables
	// on it (and on mPC = PC xor RAS top for T2/P1).
	PC uint64
	// Addr is the byte address touched by Load/Store.
	Addr uint64
	// Target is the branch target PC (valid when Kind == Branch).
	Target uint64
	// Kind classifies the operation.
	Kind Kind
	// Dst is the destination register (0 = none).
	Dst Reg
	// Src1, Src2 are source registers (0 = none). For Load/Store, Src1 is
	// the address base register; the dependency tracker serializes a load
	// behind the producer of its address.
	Src1, Src2 Reg
	// Lat is the execution latency in cycles for ALU ops (0 means 1).
	Lat uint8
	// Taken reports whether a Branch was taken.
	Taken bool
	// IsCall / IsRet mark call/return branches for the RAS.
	IsCall bool
	IsRet  bool
	// Mispredict marks a branch the front end mispredicts; the core charges
	// the misprediction penalty. Workload generators set this according to
	// the predictability of the branch they are modelling.
	Mispredict bool
}

// IsMem reports whether the instruction accesses data memory.
func (in *Inst) IsMem() bool { return in.Kind == Load || in.Kind == Store }

// LineAddr returns the cache-line address of Addr for the given line size.
func LineAddr(addr uint64, lineBytes uint64) uint64 { return addr &^ (lineBytes - 1) }
