package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func sampleInsts() []Inst {
	return []Inst{
		{PC: 0x400000, Kind: ALU, Dst: 5, Src1: 4, Src2: 3, Lat: 2},
		{PC: 0x400004, Kind: Load, Addr: 0x10000008, Dst: 6, Src1: 5},
		{PC: 0x400008, Kind: Store, Addr: 0x10000010, Src1: 6},
		{PC: 0x40000c, Kind: Branch, Taken: true, Target: 0x400000, Mispredict: true},
		{PC: 0x400010, Kind: Branch, Taken: true, Target: 0x500000, IsCall: true},
		{PC: 0x500004, Kind: Branch, Taken: true, Target: 0x400014, IsRet: true},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	src := &SliceSource{Insts: sampleInsts()}
	words := map[uint64]uint64{0x1000: 0x2000, 0x2000: 0x1000}
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, src, words, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("wrote %d instructions", n)
	}
	ft, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Insts) != 6 {
		t.Fatalf("read %d instructions", len(ft.Insts))
	}
	for i, want := range sampleInsts() {
		if ft.Insts[i] != want {
			t.Errorf("inst %d: got %+v want %+v", i, ft.Insts[i], want)
		}
	}
	if v, ok := ft.Memory.Value(0x1000); !ok || v != 0x2000 {
		t.Error("pointer words lost")
	}
	// Replay as a Source.
	var in Inst
	cnt := 0
	for ft.Next(&in) {
		cnt++
	}
	if cnt != 6 {
		t.Errorf("source replay %d", cnt)
	}
	ft.Reset()
	if !ft.Next(&in) || in.PC != 0x400000 {
		t.Error("Reset broken")
	}
}

func TestTraceLimitRespected(t *testing.T) {
	src := &SliceSource{Insts: sampleInsts()}
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, src, nil, 3)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestTraceBadMagic(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("NOPE...."))); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must fail")
	}
}

// Property: arbitrary (sanitized) instruction sequences survive the round
// trip exactly.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		PC, Addr, Target uint64
		Kind, Dst, Flags uint8
	}) bool {
		insts := make([]Inst, len(raw))
		for i, r := range raw {
			in := Inst{
				PC:   r.PC & 0xFFFFFFFFFF,
				Kind: Kind(r.Kind % 4),
				Dst:  Reg(r.Dst % NumRegs),
				Lat:  r.Flags % 8,
			}
			if in.IsMem() {
				in.Addr = r.Addr & 0xFFFFFFFFFF
			}
			if in.Kind == Branch {
				in.Target = r.Target & 0xFFFFFFFFFF
				in.Taken = r.Flags&1 != 0
				in.Mispredict = r.Flags&2 != 0
			}
			insts[i] = in
		}
		var buf bytes.Buffer
		if _, err := WriteTrace(&buf, &SliceSource{Insts: insts}, nil, uint64(len(insts))); err != nil {
			return false
		}
		ft, err := ReadTrace(&buf)
		if err != nil || len(ft.Insts) != len(insts) {
			return false
		}
		for i := range insts {
			if ft.Insts[i] != insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTraceHugeCountHeader: the instruction count in the header is
// untrusted. A file that claims far more instructions than it holds must
// end in an error — not in a panic (a 2^62 capacity is out of range) or an
// out-of-memory kill (2^31 Inst is 96 GiB) from sizing the slice up front.
func TestTraceHugeCountHeader(t *testing.T) {
	for _, n := range []uint64{1 << 31, 1 << 62} {
		b := append([]byte(fileMagic), 0) // no pointer words
		b = binary.AppendUvarint(b, n)
		if _, err := ReadTrace(bytes.NewReader(b)); !errors.Is(err, io.EOF) {
			t.Errorf("count %d over an empty body: got %v, want the EOF error", n, err)
		}
	}
}
