package store

import (
	"sync"
	"time"
)

// Mem is the in-memory backend for tests and single-process sweeps without a
// -store directory. It runs the same Encode/Decode framing as FS — a record
// that would not survive the disk round-trip does not survive Mem either —
// and grants the same advisory leases against an injectable clock.
type Mem struct {
	mu     sync.Mutex
	recs   map[string][]byte
	leases map[string]memLease
	now    func() time.Time
	nextID uint64
}

type memLease struct {
	owner   uint64
	expires int64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{recs: map[string][]byte{}, leases: map[string]memLease{}, now: time.Now}
}

// WithClock replaces the lease clock (tests drive expiry deterministically).
func (m *Mem) WithClock(now func() time.Time) *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
	return m
}

// Get implements Store.
func (m *Mem) Get(digest string) (*Record, error) {
	m.mu.Lock()
	data, ok := m.recs[digest]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	// Decode's payload aliases its input: hand it a copy, so a caller that
	// mutates the payload cannot reach the stored bytes.
	return Decode(digest, append([]byte(nil), data...))
}

// Put implements Store.
func (m *Mem) Put(rec *Record) error {
	data, err := Encode(rec)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.recs[rec.Digest] = data
	m.mu.Unlock()
	return nil
}

// Len reports the number of stored records.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// Corrupt overwrites the stored bytes under digest (test helper for
// exercising the corruption paths without a filesystem).
func (m *Mem) Corrupt(digest string, mutate func([]byte) []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.recs[digest]; ok {
		m.recs[digest] = mutate(append([]byte(nil), data...))
	}
}

// TryLease implements Store.
func (m *Mem) TryLease(name string, ttl time.Duration) (func() error, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nowNS := m.now().UnixNano()
	if l, ok := m.leases[name]; ok && nowNS < l.expires {
		return nil, false, nil
	}
	m.nextID++
	id := m.nextID
	m.leases[name] = memLease{owner: id, expires: nowNS + ttl.Nanoseconds()}
	release := func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		if l, ok := m.leases[name]; ok && l.owner == id {
			delete(m.leases, name)
		}
		return nil
	}
	return release, true, nil
}
