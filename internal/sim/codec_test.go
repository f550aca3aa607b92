package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"divlab/internal/cache"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/obs"
	"divlab/internal/workloads"
)

// codecCase is one real run whose encoding the codec tests round-trip and
// FuzzDecodeResults seeds from.
type codecCase struct {
	name      string
	footprint bool
	rs        []*Result
}

// codecCases runs stride with the footprint off and on, tpc (several
// component names and owner slots) and a 4-core tpc mix, at insts per core.
func codecCases(insts uint64) []codecCase {
	run := func(spec string, footprint bool) []*Result {
		cfg := DefaultConfig(insts)
		cfg.CollectFootprint = footprint
		return []*Result{RunSingle(workloads.SPEC()[0], MustByName(spec).Factory, cfg)}
	}
	mix := DefaultConfig(insts)
	mix.Cores = 4
	mix.CollectFootprint = true
	return []codecCase{
		{"stride", false, run("stride", false)},
		{"stride/footprint", true, run("stride", true)},
		{"tpc/footprint", true, run("tpc", true)},
		{"mix/tpc/footprint", true, RunMulti(workloads.Mixes(1, 3)[0], MustByName("tpc").Factory, mix)},
	}
}

// resultWire is the reflect reference for the wire shape, the struct the
// hand-written codec replaced: encoding/json over it writes the same fields
// in the same order, but sorts footprint keys as decimal strings ("10"
// before "9"), and reads them in any order.
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

// footprintMap is f as the map the reference encodes; nil when f was not
// collected.
func footprintMap(f Footprint) map[mem.Line]uint32 {
	if f.Lines == nil {
		return nil
	}
	m := make(map[mem.Line]uint32, len(f.Lines))
	for i, line := range f.Lines {
		m[line] = f.Vals[i]
	}
	return m
}

// referenceEncode is json.Marshal over the reflect reference.
func referenceEncode(rs []*Result) ([]byte, error) {
	ws := make([]*resultWire, len(rs))
	for i, r := range rs {
		w := &resultWire{
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
			MissL1Lines: footprintMap(r.MissL1Lines),
			MissL2Lines: footprintMap(r.MissL2Lines),
			Attempted:   footprintMap(r.Attempted),
			IssuedLines: footprintMap(r.IssuedLines),
			Names:       r.Names,
			L1Stats:     r.L1Stats,
			L2Stats:     r.L2Stats,
			DRAM:        r.DRAM,
		}
		if r.ownerSlots != nil {
			w.OwnerSlots = make([]uint16, len(r.ownerSlots))
			for j, s := range r.ownerSlots {
				w.OwnerSlots[j] = uint16(s)
			}
		}
		ws[i] = w
	}
	return json.Marshal(ws)
}

// referenceDecode is the reflect-driven decoder DecodeResults replaced:
// encoding/json into resultWire, with the footprint maps converted to
// columns. FuzzDecodeResults holds the strict reader to it.
func referenceDecode(data []byte) ([]*Result, error) {
	var ws []*resultWire
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, err
	}
	if ws == nil {
		return nil, nil
	}
	rs := make([]*Result, len(ws))
	var buf []linePair
	for i, w := range ws {
		if w == nil {
			continue
		}
		r := &Result{
			Core:        w.Core,
			L1Misses:    w.L1Misses,
			L1Secondary: w.L1Secondary,
			L2Misses:    w.L2Misses,
			Traffic:     w.Traffic,
			Issued:      w.Issued,
			Filtered:    w.Filtered,
			Dropped:     w.Dropped,
			IssuedDest:  w.IssuedDest,
			perOwner:    w.PerOwner,
			CatIssued:   w.CatIssued,
			CatIssuedL1: w.CatIssuedL1,
			perOwnerCat: w.PerOwnerCat,
			CatL1Misses: w.CatL1Misses,
			CatL2Misses: w.CatL2Misses,
			MissL1Lines: columns(w.MissL1Lines, &buf),
			MissL2Lines: columns(w.MissL2Lines, &buf),
			Attempted:   columns(w.Attempted, &buf),
			IssuedLines: columns(w.IssuedLines, &buf),
			Names:       w.Names,
			L1Stats:     w.L1Stats,
			L2Stats:     w.L2Stats,
			DRAM:        w.DRAM,
		}
		if w.OwnerSlots != nil {
			r.ownerSlots = make([]uint8, len(w.OwnerSlots))
			for j, s := range w.OwnerSlots {
				if s > 255 {
					return nil, &json.UnmarshalTypeError{Value: "owner slot", Type: reflect.TypeOf(uint8(0))}
				}
				r.ownerSlots[j] = uint8(s)
			}
		}
		rs[i] = r
	}
	return rs, nil
}

// mixedDigits is a hand-built record whose footprint lines have different
// digit counts, so decimal-string key order and numeric order differ. Its
// miss_l2_lines was not collected and its issued_lines is empty.
func mixedDigits() []*Result {
	return []*Result{{
		L1Misses:    4,
		MissL1Lines: Footprint{Lines: []mem.Line{640, 1_000_000_000}, Vals: []uint32{3, 1}},
		Attempted:   Footprint{Lines: []mem.Line{64, 640, 100_000_000}, Vals: []uint32{1, 2, 3}},
		IssuedLines: Footprint{Lines: []mem.Line{}, Vals: []uint32{}},
	}}
}

// TestResultCodecRoundTrip runs real simulations and requires the decoded
// results to be deep-equal to the originals — including the unexported dense
// counters and the collected-or-not state of the footprints — through
// both DecodeResults and the json.Unmarshaler entry. The encoding itself
// must be what json.Marshal and the reflect reference write.
func TestResultCodecRoundTrip(t *testing.T) {
	for _, c := range codecCases(20000) {
		data, err := EncodeResults(c.rs)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		// json.Marshal goes through MarshalJSON, and the reflect reference
		// writes the same bytes because every line of a real run has the
		// same number of digits.
		for _, ref := range []func([]*Result) ([]byte, error){
			func(rs []*Result) ([]byte, error) { return json.Marshal(rs) },
			referenceEncode,
		} {
			b, err := ref(c.rs)
			if err != nil {
				t.Fatalf("%s: reference encode: %v", c.name, err)
			}
			if string(b) != string(data) {
				t.Errorf("%s: EncodeResults differs from a reference encoding", c.name)
			}
		}
		back, err := DecodeResults(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !reflect.DeepEqual(c.rs, back) {
			t.Errorf("%s: round trip not lossless", c.name)
		}
		for i, r := range c.rs {
			if c.footprint && back[i].MissL1Lines.Lines == nil {
				t.Errorf("%s: collected footprint decoded as not collected", c.name)
			}
			if !c.footprint && back[i].MissL1Lines.Lines != nil {
				t.Errorf("%s: footprint that was off decoded as collected", c.name)
			}
			one, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var single Result
			if err := json.Unmarshal(one, &single); err != nil {
				t.Fatalf("%s: unmarshal result %d: %v", c.name, i, err)
			}
			if !reflect.DeepEqual(r, &single) {
				t.Errorf("%s: result %d: UnmarshalJSON round trip not lossless", c.name, i)
			}
		}

		// A second encode of the decoded results must be byte-identical: the
		// store's concurrent-writer safety rests on encoding determinism.
		data2, err := EncodeResults(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: re-encode differs from first encode", c.name)
		}
	}
}

// TestResultCodecBaseline covers the factory-nil (no-prefetch) shape, whose
// owner tables are minimal.
func TestResultCodecBaseline(t *testing.T) {
	res := RunSingle(workloads.SPEC()[0], nil, DefaultConfig(20000))
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &back) {
		t.Errorf("baseline round trip not lossless")
	}
}

// TestResultCodecRefusesLifecycle: lifecycle state must never be persisted
// lossily — serialization errors out instead.
func TestResultCodecRefusesLifecycle(t *testing.T) {
	res := &Result{Lifecycle: obs.NewLifecycle(1)}
	if _, err := json.Marshal(res); err == nil {
		t.Error("Result with Lifecycle marshaled; want error")
	}
	if _, err := EncodeResults([]*Result{res}); err == nil {
		t.Error("EncodeResults encoded a Result with Lifecycle; want error")
	}
}

// TestFootprintGolden pins the footprint wire bytes: the golden file is
// json.Marshal of a 5,000-instruction stream.pure run under tpc with
// footprints on, written by the reflect encoder the hand-written one
// replaced. EncodeResults must reproduce it byte for byte, and it must
// decode to a fresh run's result.
func TestFootprintGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/footprint.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := workloads.ByName("stream.pure")
	if !ok {
		t.Fatal("stream.pure missing")
	}
	cfg := DefaultConfig(5000)
	cfg.CollectFootprint = true
	rs := []*Result{RunSingle(w, MustByName("tpc").Factory, cfg)}
	got, err := EncodeResults(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("EncodeResults differs from the golden footprint record (%d vs %d bytes)", len(got), len(golden))
	}
	back, err := DecodeResults(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rs) {
		t.Error("golden footprint record does not decode to a fresh run's result")
	}
}

// TestFootprintKeyOrder: the reflect reference writes footprint keys in
// decimal-string order, which is not numeric order when lines differ in
// digit count. DecodeResults reads that order into ascending columns,
// EncodeResults writes numeric order, and a collected-but-empty footprint
// stays {} while one that was off stays null.
func TestFootprintKeyOrder(t *testing.T) {
	rs := mixedDigits()
	ref, err := referenceEncode(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(ref, []byte(`"miss_l1_lines":{"1000000000":1,"640":3}`)) ||
		!bytes.Contains(ref, []byte(`"attempted":{"100000000":3,"64":1,"640":2}`)) {
		t.Fatalf("reference encoding is in numeric key order, want decimal-string order:\n%s", ref)
	}
	back, err := DecodeResults(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rs) {
		t.Errorf("decimal-string order decoded to %+v, want ascending columns %+v", back[0], rs[0])
	}
	enc, err := EncodeResults(back)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"miss_l1_lines":{"640":3,"1000000000":1}`,
		`"miss_l2_lines":null`,
		`"attempted":{"64":1,"640":2,"100000000":3}`,
		`"issued_lines":{}`,
	} {
		if !bytes.Contains(enc, []byte(want)) {
			t.Errorf("EncodeResults lacks %s:\n%s", want, enc)
		}
	}
	if again, err := DecodeResults(enc); err != nil || !reflect.DeepEqual(again, rs) {
		t.Errorf("numeric order did not round trip: %v", err)
	}

	// Duplicate keys are refused in either order.
	for _, dup := range []string{`{"640":3,"640":1}`, `{"1000000000":1,"640":3,"1000000000":2}`} {
		bad := bytes.Replace(enc, []byte(`{"640":3,"1000000000":1}`), []byte(dup), 1)
		if _, err := DecodeResults(bad); err == nil {
			t.Errorf("DecodeResults accepted duplicate keys %s", dup)
		}
	}
	// Columns that are not strictly ascending are refused by the encoder.
	unsorted := mixedDigits()
	unsorted[0].MissL1Lines.Lines[0], unsorted[0].MissL1Lines.Lines[1] = 1_000_000_000, 640
	if _, err := EncodeResults(unsorted); err == nil {
		t.Error("EncodeResults encoded descending footprint columns")
	}
}

// FuzzDecodeResults holds the strict reader to the reflect reference: it
// never panics, and whatever it accepts the reference accepts too, into
// deep-equal results (reflect.DeepEqual keeps nil and empty columns
// distinct).
func FuzzDecodeResults(f *testing.F) {
	baseline, err := json.Marshal([]*Result{RunSingle(workloads.SPEC()[0], nil, DefaultConfig(1000))})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(baseline)
	mixed, err := referenceEncode(mixedDigits())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	for _, c := range codecCases(1000) {
		data, err := json.Marshal(c.rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeResults(data)
		if err != nil {
			return
		}
		want, err := referenceDecode(data)
		if err != nil {
			t.Fatalf("DecodeResults accepted what encoding/json refuses: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeResults and encoding/json disagree:\n got %+v\nwant %+v", got, want)
		}
	})
}
