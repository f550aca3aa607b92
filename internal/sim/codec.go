package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"divlab/internal/mem"
)

// The wire shape of a Result is one JSON object whose fields appear in the
// order encoder.result writes them and decoder.result reads them. Every field
// round-trips bit-exactly: all counters are integers; a footprint that was
// not collected is null and one that was collected but is empty is {}, and
// consumers distinguish the two. Footprint keys are decimal line addresses
// in ascending numeric order. owner_slots is an array of numbers, not the
// base64 string encoding/json writes for a []uint8.

// EncodeResults encodes a result set in one pass, in the form DecodeResults
// reads: a JSON array of result objects. It writes the bytes
// json.Marshal([]*Result) writes, because MarshalJSON shares its encoder.
// The small fixed-shape fields and the name table go to encoding/json on
// their own, as the decoder reads them.
func EncodeResults(rs []*Result) ([]byte, error) {
	n := 2
	for _, r := range rs {
		if r != nil {
			n += r.encodedSizeHint()
		}
	}
	e := encoder{buf: make([]byte, 0, n)}
	e.buf = append(e.buf, '[')
	for i, r := range rs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.result(r)
	}
	e.buf = append(e.buf, ']')
	return e.finish()
}

// MarshalJSON serializes the full measurement set, including the dense
// per-owner counters. A Result carrying a Lifecycle tracker refuses to
// serialize: lifecycle state is an in-process object graph, and the store
// must never hold a lossy rendering of it.
func (r *Result) MarshalJSON() ([]byte, error) {
	e := encoder{buf: make([]byte, 0, r.encodedSizeHint())}
	e.result(r)
	return e.finish()
}

// encodedSizeHint bounds the encoding of r's fixed-shape fields and covers
// its footprint entries at their usual size, nine-digit lines with short
// values, so a typical encoding needs no buffer growth.
func (r *Result) encodedSizeHint() int {
	entries := len(r.MissL1Lines.Lines) + len(r.MissL2Lines.Lines) + len(r.Attempted.Lines) + len(r.IssuedLines.Lines)
	return 2048 + 64*len(r.perOwner) + 16*entries
}

// encoder appends one encoded payload to buf. The first error sticks: every
// later step is a no-op, so callers check once at the end.
type encoder struct {
	buf []byte
	err error
}

// result writes one Result object; decoder.result reads the same fields in
// the same order.
func (e *encoder) result(r *Result) {
	if r == nil {
		e.fail("nil Result")
		return
	}
	if r.Lifecycle != nil {
		e.fail("Result with attached Lifecycle is not serializable")
		return
	}
	var slots []uint16
	if r.ownerSlots != nil {
		slots = make([]uint16, len(r.ownerSlots))
		for i, s := range r.ownerSlots {
			slots[i] = uint16(s)
		}
	}
	e.json(`{"core":`, r.Core)
	e.uint(`,"l1_misses":`, r.L1Misses)
	e.uint(`,"l1_secondary":`, r.L1Secondary)
	e.uint(`,"l2_misses":`, r.L2Misses)
	e.uint(`,"traffic":`, r.Traffic)
	e.uint(`,"issued":`, r.Issued)
	e.uint(`,"filtered":`, r.Filtered)
	e.uint(`,"dropped":`, r.Dropped)
	e.json(`,"issued_dest":`, r.IssuedDest)
	e.json(`,"per_owner":`, r.perOwner)
	e.json(`,"cat_issued":`, r.CatIssued)
	e.json(`,"cat_issued_l1":`, r.CatIssuedL1)
	e.json(`,"per_owner_cat":`, r.perOwnerCat)
	e.json(`,"cat_l1_misses":`, r.CatL1Misses)
	e.json(`,"cat_l2_misses":`, r.CatL2Misses)
	e.lines(`,"miss_l1_lines":`, r.MissL1Lines)
	e.lines(`,"miss_l2_lines":`, r.MissL2Lines)
	e.lines(`,"attempted":`, r.Attempted)
	e.lines(`,"issued_lines":`, r.IssuedLines)
	e.json(`,"owner_slots":`, slots)
	e.json(`,"names":`, r.Names)
	e.json(`,"l1_stats":`, r.L1Stats)
	e.json(`,"l2_stats":`, r.L2Stats)
	e.json(`,"dram":`, r.DRAM)
	e.buf = append(e.buf, '}')
}

// finish returns the encoding, or the first error.
func (e *encoder) finish() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("sim: encode result: %s", fmt.Sprintf(format, args...))
	}
}

// uint writes field key with an unsigned decimal value.
func (e *encoder) uint(key string, v uint64) {
	e.buf = strconv.AppendUint(append(e.buf, key...), v, 10)
}

// json writes field key with v's encoding/json encoding.
func (e *encoder) json(key string, v any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		e.fail("%s: %v", key, err)
		return
	}
	e.buf = append(append(e.buf, key...), b...)
}

// lines writes field key as a footprint: null when it was not collected,
// otherwise an object of decimal line addresses, ascending, to their values.
// Columns that are not strictly ascending or differ in length are an error,
// so every encoding reads back to the columns it came from.
func (e *encoder) lines(key string, f Footprint) {
	e.buf = append(e.buf, key...)
	if f.Lines == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	if len(f.Vals) != len(f.Lines) {
		e.fail("%s: %d lines but %d values", key, len(f.Lines), len(f.Vals))
		return
	}
	b := append(e.buf, '{')
	for i, line := range f.Lines {
		if i > 0 {
			if line <= f.Lines[i-1] {
				e.fail("%s: line %d after %d", key, line, f.Lines[i-1])
				return
			}
			b = append(b, ',')
		}
		b = append(strconv.AppendUint(append(b, '"'), uint64(line), 10), '"', ':')
		b = strconv.AppendUint(b, uint64(f.Vals[i]), 10)
	}
	e.buf = append(b, '}')
}

// DecodeResults decodes a result set in the form EncodeResults writes it, in
// one strict pass: the wire fields in order, each exactly once, with no
// whitespace around them. The four footprints are appended straight into
// columns sized from their entry count; the small fixed-shape fields go to
// encoding/json on their own sub-slices, so their field lists stay defined
// once. Footprint keys may come in any order: the columns are sorted when
// they are not ascending. Unknown fields, trailing bytes, duplicate
// footprint keys, values that overflow their type and owner slots above 255
// are errors.
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

// result reads one Result object; the field order mirrors encoder.result.
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

// lines reads field key as a footprint: null (footprint off) or an object
// of decimal line addresses to uint32 values. Keys and values are bare
// digits, so the first '}' closes the object and its ':' count is the entry
// count, which sizes the columns. Entries are appended in the order read;
// if a line is not above the one before, the columns go through a map,
// which exposes duplicate keys, and come back sorted.
func (d *decoder) lines(key string, dst *Footprint) {
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
	f := Footprint{Lines: make([]mem.Line, 0, n), Vals: make([]uint32, 0, n)}
	ascending := true
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
		if last := len(f.Lines) - 1; last >= 0 && mem.Line(line) <= f.Lines[last] {
			ascending = false
		}
		f.Lines = append(f.Lines, mem.Line(line))
		f.Vals = append(f.Vals, uint32(count))
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
	if !ascending {
		m := make(map[mem.Line]uint32, len(f.Lines))
		for i, line := range f.Lines {
			m[line] = f.Vals[i]
		}
		if len(m) != len(f.Lines) {
			d.fail("duplicate key in %s", key)
			return
		}
		f = columns(m, new([]linePair))
	}
	*dst = f
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
