package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"divlab/internal/vmem"
)

// Trace files make runs replayable outside the synthetic generators: a
// header, the pointer words P1-style prefetchers need to dereference, then a
// delta-compressed instruction stream. The format is self-contained so a
// trace captured from one build replays bit-identically on another.
//
//	magic "DLT1" | vmem count | (addr,value)* | inst count | inst records*
//
// Instruction records are varint-encoded with a leading kind/flag byte;
// PCs and addresses are delta-encoded against the previous record, which
// compresses loop-heavy traces by roughly 4x over fixed-width encoding.

const fileMagic = "DLT1"

// flag byte layout: bits 0-1 kind, 2 taken, 3 call, 4 ret, 5 mispredict.
const (
	flTaken = 1 << (2 + iota)
	flCall
	flRet
	flMispredict
)

// WriteTrace captures up to n instructions from src, together with the
// pointer words prefetchers dereference, into w. It returns how many
// instructions were written.
func WriteTrace(w io.Writer, src Source, pointerWords map[uint64]uint64, n uint64) (uint64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return 0, err
	}
	// Pointer words section.
	writeUvarint(bw, uint64(len(pointerWords)))
	// Deterministic order is not required for correctness (the reader
	// rebuilds a map) but keeps files byte-stable given a stable input map
	// iteration; callers that need stability pass an ordered capture.
	for addr, val := range pointerWords {
		writeUvarint(bw, addr)
		writeUvarint(bw, val)
	}

	// Instruction section: count, then records.
	var buf []Inst
	var in Inst
	for uint64(len(buf)) < n && src.Next(&in) {
		buf = append(buf, in)
	}
	writeUvarint(bw, uint64(len(buf)))
	var lastPC, lastAddr uint64
	for i := range buf {
		writeInst(bw, &buf[i], &lastPC, &lastAddr)
	}
	return uint64(len(buf)), bw.Flush()
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.Write(tmp[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	w.Write(tmp[:n])
}

func writeInst(w *bufio.Writer, in *Inst, lastPC, lastAddr *uint64) {
	fl := byte(in.Kind)
	if in.Taken {
		fl |= flTaken
	}
	if in.IsCall {
		fl |= flCall
	}
	if in.IsRet {
		fl |= flRet
	}
	if in.Mispredict {
		fl |= flMispredict
	}
	w.WriteByte(fl)
	writeVarint(w, int64(in.PC)-int64(*lastPC))
	*lastPC = in.PC
	w.WriteByte(byte(in.Dst))
	w.WriteByte(byte(in.Src1))
	w.WriteByte(byte(in.Src2))
	w.WriteByte(in.Lat)
	if in.IsMem() {
		writeVarint(w, int64(in.Addr)-int64(*lastAddr))
		*lastAddr = in.Addr
	}
	if in.Kind == Branch {
		writeVarint(w, int64(in.Target)-int64(in.PC))
	}
}

// maxPrealloc caps the instruction slice ReadTrace sizes from a file's
// header count (2.5 MiB of Inst).
const maxPrealloc = 1 << 16

// FileTrace is a fully loaded trace: a replayable Source plus the pointer
// memory captured with it.
type FileTrace struct {
	Insts  []Inst
	Memory *vmem.Sparse
	pos    int
}

// ReadTrace loads a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*FileTrace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	ft := &FileTrace{Memory: vmem.NewSparse(0)}

	nwords, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: vmem count: %w", err)
	}
	for i := uint64(0); i < nwords; i++ {
		addr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: vmem addr: %w", err)
		}
		val, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: vmem value: %w", err)
		}
		ft.Memory.Store(addr, val)
	}

	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: inst count: %w", err)
	}
	// The count is untrusted: preallocate at most maxPrealloc instructions
	// and let append grow, so a short file claiming a huge count ends in the
	// EOF error below instead of an allocation the size of the claim.
	ft.Insts = make([]Inst, 0, min(n, maxPrealloc))
	var lastPC, lastAddr uint64
	for i := uint64(0); i < n; i++ {
		in, err := readInst(br, &lastPC, &lastAddr)
		if err != nil {
			return nil, fmt.Errorf("trace: inst %d: %w", i, err)
		}
		ft.Insts = append(ft.Insts, in)
	}
	return ft, nil
}

func readInst(br *bufio.Reader, lastPC, lastAddr *uint64) (Inst, error) {
	var in Inst
	fl, err := br.ReadByte()
	if err != nil {
		return in, err
	}
	in.Kind = Kind(fl & 3)
	in.Taken = fl&flTaken != 0
	in.IsCall = fl&flCall != 0
	in.IsRet = fl&flRet != 0
	in.Mispredict = fl&flMispredict != 0
	dpc, err := binary.ReadVarint(br)
	if err != nil {
		return in, err
	}
	in.PC = uint64(int64(*lastPC) + dpc)
	*lastPC = in.PC
	b := make([]byte, 4)
	if _, err := io.ReadFull(br, b); err != nil {
		return in, err
	}
	in.Dst, in.Src1, in.Src2, in.Lat = Reg(b[0]), Reg(b[1]), Reg(b[2]), b[3]
	if in.IsMem() {
		da, err := binary.ReadVarint(br)
		if err != nil {
			return in, err
		}
		in.Addr = uint64(int64(*lastAddr) + da)
		*lastAddr = in.Addr
	}
	if in.Kind == Branch {
		dt, err := binary.ReadVarint(br)
		if err != nil {
			return in, err
		}
		in.Target = uint64(int64(in.PC) + dt)
	}
	return in, nil
}

// Next implements Source.
func (f *FileTrace) Next(in *Inst) bool {
	if f.pos >= len(f.Insts) {
		return false
	}
	*in = f.Insts[f.pos]
	f.pos++
	return true
}

// Reset rewinds the trace for another replay.
func (f *FileTrace) Reset() { f.pos = 0 }
