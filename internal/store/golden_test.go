package store

import (
	"bytes"
	"os"
	"testing"
)

// goldenRecords are the records testdata/records.golden holds, encoded by
// the json.Marshal(rec) encoder Encode replaced: a runner result record
// under its canonical key, and a sweep record whose key carries characters
// json.Marshal escapes and whose payload holds them escaped, as the
// json.Marshal that writes sweep payloads leaves them.
func goldenRecords() []*Record {
	return []*Record{
		{Schema: SchemaVersion, Digest: "5d3b45f5d6a06d10261cc46bd3688779", Kind: KindResults,
			Key:     "divlab.key/v1\nworkload=stream.pure\nprefetcher=tpc\nmulti=false\nseed=1\ninsts=20000\ncores=1\n",
			Payload: []byte(`[{"core":{"insts":20000,"cycles":31337},"l1_misses":12,"names":{"1":"tpc.T2"},"missl1_lines":{"4096":1,"4160":2}}]`)},
		{Schema: SchemaVersion, Digest: "a1b2c3", Kind: KindSweepPoint,
			Key:     "divlab.sweep/v1\ngrid=<degree> & \"quoted\" \\ café   \t\n",
			Payload: []byte(`{"schema":"divlab.exp/v1","experiment":"sweep-point:a\u003cb\u0026c","rows":[{"metric":"speedup","value":1.5},{"metric":"x","value":-2e-7}]}`)},
	}
}

// TestEncodeMatchesGolden pins Encode's bytes, header included, to records
// written before Encode framed the payload by hand, so stores written by
// either encoder hold identical files.
func TestEncodeMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/records.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, rec := range goldenRecords() {
		b, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Encode bytes differ from testdata/records.golden:\n got %q\nwant %q", got, want)
	}
}
