package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"divlab/internal/cache"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/workloads"
)

// resultWire is the JSON shape of a Result. It exists so the unexported dense
// counters (perOwner, perOwnerCat, ownerSlots) survive the round-trip, and so
// the wire format is explicit rather than an accident of field visibility.
//
// Losslessness contract: every field round-trips bit-exactly. All counters
// are integers; the line maps carry no omitempty so a nil map (footprint off)
// stays nil and an empty-but-allocated map stays allocated — consumers
// distinguish the two. ownerSlots widens to []uint16 on the wire because
// encoding/json would base64 a []uint8. The field order is the wire order,
// which decoder.result reads in step.
type resultWire struct {
	Core cpu.Result `json:"core"`

	L1Misses    uint64 `json:"l1_misses"`
	L1Secondary uint64 `json:"l1_secondary"`
	L2Misses    uint64 `json:"l2_misses"`
	Traffic     uint64 `json:"traffic"`

	Issued     uint64    `json:"issued"`
	Filtered   uint64    `json:"filtered"`
	Dropped    uint64    `json:"dropped"`
	IssuedDest [3]uint64 `json:"issued_dest"`

	PerOwner    []uint64                          `json:"per_owner"`
	CatIssued   [workloads.NumCategories]uint64   `json:"cat_issued"`
	CatIssuedL1 [workloads.NumCategories]uint64   `json:"cat_issued_l1"`
	PerOwnerCat [][workloads.NumCategories]uint64 `json:"per_owner_cat"`
	CatL1Misses [workloads.NumCategories]uint64   `json:"cat_l1_misses"`
	CatL2Misses [workloads.NumCategories]uint64   `json:"cat_l2_misses"`

	MissL1Lines map[mem.Line]uint32 `json:"miss_l1_lines"`
	MissL2Lines map[mem.Line]uint32 `json:"miss_l2_lines"`
	Attempted   map[mem.Line]uint32 `json:"attempted"`
	IssuedLines map[mem.Line]uint32 `json:"issued_lines"`
	OwnerSlots  []uint16            `json:"owner_slots"`
	Names       map[int]string      `json:"names"`

	L1Stats cache.Stats `json:"l1_stats"`
	L2Stats cache.Stats `json:"l2_stats"`
	DRAM    dram.Stats  `json:"dram"`
}

// MarshalJSON serializes the full measurement set, including the dense
// per-owner counters. A Result carrying a Lifecycle tracker refuses to
// serialize: lifecycle state is an in-process object graph, and the store
// must never hold a lossy rendering of it.
func (r *Result) MarshalJSON() ([]byte, error) {
	if r.Lifecycle != nil {
		return nil, errors.New("sim: Result with attached Lifecycle is not serializable")
	}
	w := resultWire{
		Core:        r.Core,
		L1Misses:    r.L1Misses,
		L1Secondary: r.L1Secondary,
		L2Misses:    r.L2Misses,
		Traffic:     r.Traffic,
		Issued:      r.Issued,
		Filtered:    r.Filtered,
		Dropped:     r.Dropped,
		IssuedDest:  r.IssuedDest,
		PerOwner:    r.perOwner,
		CatIssued:   r.CatIssued,
		CatIssuedL1: r.CatIssuedL1,
		PerOwnerCat: r.perOwnerCat,
		CatL1Misses: r.CatL1Misses,
		CatL2Misses: r.CatL2Misses,
		MissL1Lines: r.MissL1Lines,
		MissL2Lines: r.MissL2Lines,
		Attempted:   r.Attempted,
		IssuedLines: r.IssuedLines,
		Names:       r.Names,
		L1Stats:     r.L1Stats,
		L2Stats:     r.L2Stats,
		DRAM:        r.DRAM,
	}
	if r.ownerSlots != nil {
		w.OwnerSlots = make([]uint16, len(r.ownerSlots))
		for i, s := range r.ownerSlots {
			w.OwnerSlots[i] = uint16(s)
		}
	}
	return json.Marshal(w)
}

// DecodeResults decodes a result set in the form json.Marshal([]*Result)
// writes it, in one strict pass: resultWire's fields in declaration order,
// each exactly once, with no whitespace around them. The four footprint
// maps are parsed straight into maps presized from their entry count; the
// small fixed-shape fields go to encoding/json on their own sub-slices, so
// their field lists stay defined once. Unknown fields, trailing bytes,
// values that overflow their type and owner slots above 255 are errors.
func DecodeResults(payload []byte) ([]*Result, error) {
	d := decoder{buf: payload}
	d.lit("[")
	rs := []*Result{}
	for d.err == nil && !d.next(']') {
		if len(rs) > 0 {
			d.lit(",")
		}
		r := &Result{}
		d.result(r)
		rs = append(rs, r)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return rs, nil
}

// UnmarshalJSON restores a Result serialized by MarshalJSON, with the same
// strict reader as DecodeResults.
func (r *Result) UnmarshalJSON(data []byte) error {
	d := decoder{buf: data}
	*r = Result{}
	d.result(r)
	return d.finish()
}

// decoder reads one encoded payload left to right. The first error sticks:
// every later step is a no-op, so callers check once at the end.
type decoder struct {
	buf []byte
	pos int
	err error
}

// result reads one Result object; the field order mirrors resultWire.
func (d *decoder) result(r *Result) {
	var slots []uint16
	d.json(`{"core":`, &r.Core)
	d.uint(`,"l1_misses":`, &r.L1Misses)
	d.uint(`,"l1_secondary":`, &r.L1Secondary)
	d.uint(`,"l2_misses":`, &r.L2Misses)
	d.uint(`,"traffic":`, &r.Traffic)
	d.uint(`,"issued":`, &r.Issued)
	d.uint(`,"filtered":`, &r.Filtered)
	d.uint(`,"dropped":`, &r.Dropped)
	d.json(`,"issued_dest":`, &r.IssuedDest)
	d.json(`,"per_owner":`, &r.perOwner)
	d.json(`,"cat_issued":`, &r.CatIssued)
	d.json(`,"cat_issued_l1":`, &r.CatIssuedL1)
	d.json(`,"per_owner_cat":`, &r.perOwnerCat)
	d.json(`,"cat_l1_misses":`, &r.CatL1Misses)
	d.json(`,"cat_l2_misses":`, &r.CatL2Misses)
	d.lines(`,"miss_l1_lines":`, &r.MissL1Lines)
	d.lines(`,"miss_l2_lines":`, &r.MissL2Lines)
	d.lines(`,"attempted":`, &r.Attempted)
	d.lines(`,"issued_lines":`, &r.IssuedLines)
	d.json(`,"owner_slots":`, &slots)
	d.json(`,"names":`, &r.Names)
	d.json(`,"l1_stats":`, &r.L1Stats)
	d.json(`,"l2_stats":`, &r.L2Stats)
	d.json(`,"dram":`, &r.DRAM)
	d.lit("}")
	if d.err != nil || slots == nil {
		return
	}
	r.ownerSlots = make([]uint8, len(slots))
	for i, s := range slots {
		if s > 255 {
			d.fail("owner slot %d out of range", s)
			return
		}
		r.ownerSlots[i] = uint8(s)
	}
}

// finish requires the whole input to have been consumed and returns the
// first error, if any.
func (d *decoder) finish() error {
	if d.err == nil && d.pos != len(d.buf) {
		d.fail("trailing bytes")
	}
	return d.err
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: decode result at byte %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

// next consumes c if it is the next byte.
func (d *decoder) next(c byte) bool {
	if d.err == nil && d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// lit consumes the literal s: punctuation and field names.
func (d *decoder) lit(s string) {
	if d.err != nil {
		return
	}
	if len(d.buf)-d.pos < len(s) || string(d.buf[d.pos:d.pos+len(s)]) != s {
		d.fail("want %s", s)
		return
	}
	d.pos += len(s)
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if d.err != nil || len(d.buf)-d.pos < 4 || string(d.buf[d.pos:d.pos+4]) != "null" {
		return false
	}
	d.pos += 4
	return true
}

// uint reads field key as an unsigned decimal.
func (d *decoder) uint(key string, dst *uint64) {
	d.lit(key)
	if d.err != nil {
		return
	}
	v, end, ok := parseUint(d.buf, d.pos, math.MaxUint64)
	if !ok {
		d.fail("bad %s value", key)
		return
	}
	*dst, d.pos = v, end
}

// json reads field key, whose value must be an array, an object or null,
// and hands exactly that sub-slice to encoding/json.
func (d *decoder) json(key string, dst any) {
	d.lit(key)
	start := d.pos
	d.skip()
	if d.err != nil {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(d.buf[start:d.pos]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil || dec.InputOffset() != int64(d.pos-start) {
		d.pos = start
		d.fail("bad %s value: %v", key, err)
	}
}

// skip advances past one array, object or null without validating it:
// encoding/json checks the sub-slice skip delimits.
func (d *decoder) skip() {
	if d.err != nil || d.null() {
		return
	}
	b := d.buf
	if d.pos == len(b) || (b[d.pos] != '[' && b[d.pos] != '{') {
		d.fail("want array, object or null")
		return
	}
	depth := 0
	for i := d.pos; i < len(b); i++ {
		switch b[i] {
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				d.pos = i + 1
				return
			}
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		}
	}
	d.fail("unterminated value")
}

// lines reads field key as a footprint map: null (footprint off) or an
// object of decimal line addresses to uint32 counts. Keys and values are
// bare digits, so the first '}' closes the object and its ':' count is the
// entry count, which sizes the map and exposes duplicate keys.
func (d *decoder) lines(key string, dst *map[mem.Line]uint32) {
	d.lit(key)
	if d.null() {
		return
	}
	d.lit("{")
	if d.err != nil {
		return
	}
	end := bytes.IndexByte(d.buf[d.pos:], '}')
	if end < 0 {
		d.fail("unterminated %s", key)
		return
	}
	// Every index below stays within b: each step moves past a byte it has
	// checked is not the closing '}'.
	b := d.buf[:d.pos+end+1]
	n := bytes.Count(b[d.pos:], []byte{':'})
	m := make(map[mem.Line]uint32, n)
	i := d.pos
	for b[i] == '"' {
		line, j, ok := parseUint(b, i+1, math.MaxUint64)
		if !ok || b[j] != '"' || b[j+1] != ':' {
			break
		}
		count, k, ok := parseUint(b, j+2, math.MaxUint32)
		if !ok {
			break
		}
		m[mem.Line(line)] = uint32(count)
		if i = k; b[i] != ',' || b[i+1] != '"' {
			break
		}
		i++
	}
	d.pos = i
	if b[i] != '}' {
		d.fail("bad %s entry", key)
		return
	}
	d.pos++
	if len(m) != n {
		d.fail("duplicate key in %s", key)
		return
	}
	*dst = m
}

// maxUint64Digits is math.MaxUint64 in decimal.
const maxUint64Digits = "18446744073709551615"

// parseUint reads the JSON unsigned integer at b[i:] (digits, no leading
// zero) and returns it with the index just past it; ok is false when there
// is none or it exceeds max.
func parseUint(b []byte, i int, max uint64) (v uint64, end int, ok bool) {
	end = i
	for end < len(b) && b[end]-'0' <= 9 {
		v = v*10 + uint64(b[end]-'0')
		end++
	}
	switch n := end - i; {
	case n == 0, n > 1 && b[i] == '0', n > len(maxUint64Digits),
		n == len(maxUint64Digits) && string(b[i:end]) > maxUint64Digits:
		return 0, end, false
	}
	return v, end, v <= max
}
