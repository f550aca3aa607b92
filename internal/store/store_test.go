package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"divlab/internal/sim"
	"divlab/internal/workloads"
)

func testRecord(digest, key string) *Record {
	payload, _ := json.Marshal(map[string]int{"x": 42})
	return &Record{Schema: SchemaVersion, Digest: digest, Key: key, Kind: KindResults, Payload: payload}
}

// fakeClock is a settable clock for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

// backends runs a subtest against both implementations.
func backends(t *testing.T, fn func(t *testing.T, s Store, clock *fakeClock)) {
	t.Run("mem", func(t *testing.T) {
		clock := newFakeClock()
		fn(t, NewMem().WithClock(clock.Now), clock)
	})
	t.Run("fs", func(t *testing.T) {
		clock := newFakeClock()
		s, err := OpenFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, s.WithClock(clock.Now), clock)
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, s Store, _ *fakeClock) {
		rec := testRecord("abc123", "key text")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("abc123")
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != rec.Digest || got.Key != rec.Key || got.Kind != rec.Kind ||
			!bytes.Equal(got.Payload, rec.Payload) {
			t.Errorf("round trip mismatch: %+v vs %+v", got, rec)
		}
		// The payload aliases the bytes Decode read: mutating it must not
		// reach the stored record.
		for i := range got.Payload {
			got.Payload[i] = 'x'
		}
		if again, err := s.Get("abc123"); err != nil || !bytes.Equal(again.Payload, rec.Payload) {
			t.Errorf("Get after mutating a returned payload: %v", err)
		}
		if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(missing) = %v, want ErrNotFound", err)
		}
	})
}

func TestPutRejectsInvalidRecords(t *testing.T) {
	backends(t, func(t *testing.T, s Store, _ *fakeClock) {
		for name, rec := range map[string]*Record{
			"bad schema": {Schema: "divlab.store/v0", Digest: "d", Kind: KindResults, Payload: []byte("{}")},
			"no digest":  {Schema: SchemaVersion, Kind: KindResults, Payload: []byte("{}")},
			"unsafe":     {Schema: SchemaVersion, Digest: "a/b", Kind: KindResults, Payload: []byte("{}")},
			"no kind":    {Schema: SchemaVersion, Digest: "d", Payload: []byte("{}")},
			"no payload": {Schema: SchemaVersion, Digest: "d", Kind: KindResults},
		} {
			if err := s.Put(rec); err == nil {
				t.Errorf("Put(%s) accepted", name)
			}
		}
	})
}

// TestTruncatedRecord: a record cut off at any point — mid-header or
// mid-body — must read as corrupt, never as a shorter valid record.
func TestTruncatedRecord(t *testing.T) {
	fs, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("deadbeef", "k")
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	path := fs.objectPath("deadbeef")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := fs.Get("deadbeef")
		if !IsCorrupt(err) {
			t.Errorf("truncated at %d/%d bytes: Get = %v, want CorruptError", cut, len(full), err)
		}
	}
}

// TestBadCRC: any flipped body bit must fail the checksum.
func TestBadCRC(t *testing.T) {
	fs, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testRecord("cafe", "k")); err != nil {
		t.Fatal(err)
	}
	path := fs.objectPath("cafe")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40 // flip a bit inside the JSON body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("cafe"); !IsCorrupt(err) {
		t.Errorf("bit flip: Get = %v, want CorruptError", err)
	}
}

// TestDigestMismatch: a record copied under the wrong address must not be
// returned (it would silently answer the wrong key).
func TestDigestMismatch(t *testing.T) {
	fs, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testRecord("aaaa", "k")); err != nil {
		t.Fatal(err)
	}
	src := fs.objectPath("aaaa")
	dst := fs.objectPath("bbbb")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(src)
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("bbbb"); !IsCorrupt(err) {
		t.Errorf("mis-addressed record: Get = %v, want CorruptError", err)
	}
}

func TestMemCorruptionPaths(t *testing.T) {
	m := NewMem()
	if err := m.Put(testRecord("dd", "k")); err != nil {
		t.Fatal(err)
	}
	m.Corrupt("dd", func(b []byte) []byte { return b[:len(b)/2] })
	if _, err := m.Get("dd"); !IsCorrupt(err) {
		t.Errorf("truncated mem record: Get = %v, want CorruptError", err)
	}
	if err := m.Put(testRecord("dd", "k")); err != nil {
		t.Fatal(err)
	}
	m.Corrupt("dd", func(b []byte) []byte { b[len(b)-2] ^= 1; return b })
	if _, err := m.Get("dd"); !IsCorrupt(err) {
		t.Errorf("bit-flipped mem record: Get = %v, want CorruptError", err)
	}
}

// TestLeaseLifecycle: acquire blocks a second acquire, release unblocks it,
// and an expired lease is broken and re-acquired.
func TestLeaseLifecycle(t *testing.T) {
	backends(t, func(t *testing.T, s Store, clock *fakeClock) {
		release, ok, err := s.TryLease("point-1", time.Minute)
		if err != nil || !ok {
			t.Fatalf("first acquire: ok=%v err=%v", ok, err)
		}
		if _, ok, err := s.TryLease("point-1", time.Minute); err != nil || ok {
			t.Fatalf("second acquire while held: ok=%v err=%v", ok, err)
		}
		if _, ok, err := s.TryLease("point-2", time.Minute); err != nil || !ok {
			t.Fatalf("unrelated lease: ok=%v err=%v", ok, err)
		}
		if err := release(); err != nil {
			t.Fatal(err)
		}
		release2, ok, err := s.TryLease("point-1", time.Minute)
		if err != nil || !ok {
			t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
		}

		// Stale lease: the holder "crashed"; after expiry another process
		// breaks and re-acquires.
		clock.Advance(2 * time.Minute)
		release3, ok, err := s.TryLease("point-1", time.Minute)
		if err != nil || !ok {
			t.Fatalf("acquire of expired lease: ok=%v err=%v", ok, err)
		}
		// The dead holder's release must not free the stolen lease.
		if err := release2(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.TryLease("point-1", time.Minute); ok {
			t.Error("stale holder's release freed a lease it no longer owned")
		}
		if err := release3(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentWritersOneKey: many goroutines racing Put/Get on one digest
// (run under -race in CI). Every Get must observe either absence or a fully
// valid record — never a torn one.
func TestConcurrentWritersOneKey(t *testing.T) {
	backends(t, func(t *testing.T, s Store, _ *fakeClock) {
		const writers, reads = 8, 50
		rec := testRecord("feed", "k")
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					if err := s.Put(rec); err != nil {
						t.Errorf("concurrent Put: %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				got, err := s.Get("feed")
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Errorf("concurrent Get: %v", err)
					return
				}
				if !bytes.Equal(got.Payload, rec.Payload) {
					t.Error("concurrent Get saw torn payload")
					return
				}
			}
		}()
		wg.Wait()
	})
}

// TestConcurrentLeaseRace: exactly one of many concurrent claimants wins a
// fresh lease, and exactly one claimant wins a stale one.
func TestConcurrentLeaseRace(t *testing.T) {
	backends(t, func(t *testing.T, s Store, clock *fakeClock) {
		for round := 0; round < 2; round++ {
			name := fmt.Sprintf("raced-%d", round)
			if round == 1 {
				// Seed a stale lease, then expire it: breakers must race safely.
				if _, ok, err := s.TryLease(name, time.Second); err != nil || !ok {
					t.Fatalf("seed: ok=%v err=%v", ok, err)
				}
				clock.Advance(time.Hour)
			}
			var wg sync.WaitGroup
			wins := make([]bool, 16)
			for i := range wins {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, ok, err := s.TryLease(name, time.Minute)
					if err != nil {
						t.Errorf("TryLease: %v", err)
					}
					wins[i] = ok
				}(i)
			}
			wg.Wait()
			n := 0
			for _, w := range wins {
				if w {
					n++
				}
			}
			if n != 1 {
				t.Errorf("round %d: %d winners, want exactly 1", round, n)
			}
		}
	})
}

// TestKilledBreakerDoesNotWedgeLease: a process killed mid-break leaves
// its marker behind. The stale lease stays held for the rest of that break
// epoch and is broken in the next.
func TestKilledBreakerDoesNotWedgeLease(t *testing.T) {
	clock := newFakeClock()
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.WithClock(clock.Now)
	if _, ok, err := s.TryLease("point", time.Minute); err != nil || !ok {
		t.Fatalf("seed: ok=%v err=%v", ok, err)
	}
	clock.Advance(2 * time.Minute)
	path := filepath.Join(s.Root(), "leases", "point.lock")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stale leaseFile
	if err := json.Unmarshal(data, &stale); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(path, s.breakMarker(path, stale)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.TryLease("point", time.Minute); err != nil || ok {
		t.Fatalf("claim beside a live break marker: ok=%v err=%v, want held", ok, err)
	}
	clock.Advance(breakEpoch)
	if _, ok, err := s.TryLease("point", time.Minute); err != nil || !ok {
		t.Fatalf("claim in the next break epoch: ok=%v err=%v, want acquired", ok, err)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	data, err := Encode(testRecord("d1", "k"))
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(data, []byte(SchemaVersion), []byte("divlab.store/v9"), 1)
	if _, err := Decode("d1", mangled); !IsCorrupt(err) {
		t.Errorf("future schema: Decode = %v, want CorruptError", err)
	}
}

// FuzzDecode: Decode never panics and never accepts a record whose length,
// CRC, schema or digest disagree with its bytes. When it accepts a record
// whose body encoding/json also reads, both agree on the four strings, and
// on the payload bytes whenever the payload is one JSON value. A payload
// that is not is returned as is: each payload's own decoder refuses it.
// With reframe set, the input is a body and gets a valid header, so the
// fuzzer reaches the envelope reader past the CRC. The seeds are a real
// result payload and a sweep report under keys in the runner's and the
// sweep's canonical forms, whose newlines the encoder escapes.
func FuzzDecode(f *testing.F) {
	result, err := json.Marshal([]*sim.Result{sim.RunSingle(workloads.SPEC()[0], nil, sim.DefaultConfig(1000))})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []*Record{
		{Schema: SchemaVersion, Digest: "5d3b45f5d6a06d10261cc46bd3688779", Kind: KindResults, Payload: result,
			Key: "divlab.key/v1\nworkload=stream.pure\nprefetcher=tpc\nmulti=false\nseed=1\ninsts=20000\ncores=1\n"},
		{Schema: SchemaVersion, Digest: "a1b2c3", Kind: KindSweepPoint,
			Key:     "divlab.sweep/v1\ngrid=degree\ninsts=40000\npoint=stride-deg=2\n",
			Payload: []byte(`{"schema":"divlab.exp/v1","experiment":"sweep-point:stride-deg=2","rows":[{"metric":"speedup","value":1.5}]}`)},
	} {
		data, err := Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Digest, data, false)
		f.Add(rec.Digest, data[bytes.IndexByte(data, '\n')+1:], true)
	}
	f.Fuzz(func(t *testing.T, digest string, data []byte, reframe bool) {
		if reframe {
			data = frame(data)
		}
		rec, err := Decode(digest, data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("Decode error %v is not a CorruptError", err)
			}
			return
		}
		body := data[bytes.IndexByte(data, '\n')+1:]
		if !bytes.Equal(data, frame(body)) {
			t.Fatalf("Decode accepted a header that disagrees with its body: %q", data)
		}
		if rec.Digest != digest {
			t.Fatalf("Decode accepted digest %q at address %q", rec.Digest, digest)
		}
		var ref Record
		if json.Unmarshal(body, &ref) != nil {
			return
		}
		if rec.Schema != ref.Schema || rec.Digest != ref.Digest || rec.Key != ref.Key || rec.Kind != ref.Kind {
			t.Fatalf("envelope strings disagree:\n got %+v\nwant %+v", rec, ref)
		}
		if json.Valid(rec.Payload) && !bytes.Equal(rec.Payload, ref.Payload) {
			t.Fatalf("payloads disagree:\n got %q\nwant %q", rec.Payload, ref.Payload)
		}
	})
}
