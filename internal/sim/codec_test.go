package sim

import (
	"encoding/json"
	"reflect"
	"testing"

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

// referenceDecode is the reflect-driven decoder DecodeResults replaced:
// encoding/json into resultWire. FuzzDecodeResults holds the strict reader
// to it.
func referenceDecode(data []byte) ([]*Result, error) {
	var ws []*resultWire
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, err
	}
	if ws == nil {
		return nil, nil
	}
	rs := make([]*Result, len(ws))
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
			MissL1Lines: w.MissL1Lines,
			MissL2Lines: w.MissL2Lines,
			Attempted:   w.Attempted,
			IssuedLines: w.IssuedLines,
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

// TestResultCodecRoundTrip runs real simulations and requires the decoded
// results to be deep-equal to the originals — including the unexported dense
// counters and the nil-vs-allocated state of the footprint maps — through
// both DecodeResults and the json.Unmarshaler entry.
func TestResultCodecRoundTrip(t *testing.T) {
	for _, c := range codecCases(20000) {
		data, err := json.Marshal(c.rs)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		back, err := DecodeResults(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !reflect.DeepEqual(c.rs, back) {
			t.Errorf("%s: round trip not lossless", c.name)
		}
		for i, r := range c.rs {
			if c.footprint && back[i].MissL1Lines == nil {
				t.Errorf("%s: allocated footprint map decoded as nil", c.name)
			}
			if !c.footprint && back[i].MissL1Lines != nil {
				t.Errorf("%s: nil footprint map decoded as allocated", c.name)
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
		data2, err := json.Marshal(back)
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
}

// FuzzDecodeResults holds the strict reader to the reflect reference: it
// never panics, and whatever it accepts the reference accepts too, into
// deep-equal results (reflect.DeepEqual keeps nil and empty maps distinct).
func FuzzDecodeResults(f *testing.F) {
	baseline, err := json.Marshal([]*Result{RunSingle(workloads.SPEC()[0], nil, DefaultConfig(1000))})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(baseline)
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
