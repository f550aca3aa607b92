package runner

import (
	"errors"

	"divlab/internal/sim"
	"divlab/internal/store"
)

// The persistent tier. When a store is attached, the engine becomes
// read-through/write-behind around it: a cache-missing cacheable job first
// consults the store (hit → decode and return, zero simulation), and a
// simulated or twin-derived result is persisted after waiters are released.
// Traced runs (Key.Trace) never touch the store — a Lifecycle is an
// in-process object graph that does not serialize — and uncacheable jobs
// bypass it exactly as they bypass the memo cache.
//
// Store errors are never fatal to a run: a corrupt or unreadable record
// counts in StoreStats.Errs and falls back to simulation (the next Put
// overwrites it); a failed Put counts and is retried implicitly by whatever
// process next misses on the key.

// StoreStats counts the persistent tier's activity.
type StoreStats struct {
	// Hits are jobs answered from the store without simulating.
	Hits uint64
	// Puts are freshly simulated or twin-derived results persisted to the
	// store.
	Puts uint64
	// Errs are store operations that failed (corrupt record, mismatched
	// envelope, undecodable payload, write failure). Each was absorbed by
	// falling back to simulation or skipping persistence.
	Errs uint64
}

// SetStore attaches (or, with nil, detaches) the persistent result store.
// Attach before submitting jobs; results simulated earlier are not
// back-filled.
func (e *Engine) SetStore(s store.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = s
}

// WithStore is the Option form of SetStore.
func WithStore(s store.Store) Option {
	return func(e *Engine) { e.store = s }
}

// StoreStats reports the persistent tier's counters (zero when no store is
// attached).
func (e *Engine) StoreStats() StoreStats {
	return StoreStats{Hits: e.storeHits.Load(), Puts: e.storePuts.Load(), Errs: e.storeErrs.Load()}
}

// Sims reports the number of simulations actually executed (cache misses
// plus uncacheable runs; store hits and derived jobs excluded).
func (e *Engine) Sims() uint64 { return e.misses.Load() + e.skips.Load() }

// Derived reports the number of jobs answered from a twin's results (see
// twins) instead of simulated.
func (e *Engine) Derived() uint64 { return e.derived.Load() }

// Jobs reports the total number of jobs the engine has completed.
func (e *Engine) Jobs() uint64 {
	return e.hits.Load() + e.misses.Load() + e.skips.Load() + e.storeHits.Load() + e.derived.Load()
}

func (e *Engine) getStore() store.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store
}

// persistable reports whether results under k may live in the store.
func persistable(k Key) bool { return !k.Trace }

// storeGet looks k up in the persistent tier; want is the expected result
// count (1, or Cores for a mix). Anything other than a clean decode of a
// record that matches k's canonical text is a miss.
func (e *Engine) storeGet(k Key, want int) ([]*sim.Result, bool) {
	st := e.getStore()
	if st == nil || !persistable(k) {
		return nil, false
	}
	rec, err := st.Get(k.Digest())
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			e.storeErrs.Add(1)
		}
		return nil, false
	}
	// The envelope's canonical key must match ours exactly: a digest-version
	// bump, a hash collision, or a foreign record kind reads as a miss, never
	// as a wrong result.
	if rec.Kind != store.KindResults || rec.Key != k.Canonical() {
		e.storeErrs.Add(1)
		return nil, false
	}
	rs, err := sim.DecodeResults(rec.Payload)
	if err != nil || len(rs) != want {
		e.storeErrs.Add(1)
		return nil, false
	}
	e.storeHits.Add(1)
	return rs, true
}

// storePut persists simulated or derived results under k. Called after the
// cache entry's done channel is closed, so in-process waiters never block on
// disk I/O.
func (e *Engine) storePut(k Key, rs []*sim.Result) {
	st := e.getStore()
	if st == nil || !persistable(k) {
		return
	}
	payload, err := sim.EncodeResults(rs)
	if err != nil {
		e.storeErrs.Add(1)
		return
	}
	rec := &store.Record{
		Schema:  store.SchemaVersion,
		Digest:  k.Digest(),
		Key:     k.Canonical(),
		Kind:    store.KindResults,
		Payload: payload,
	}
	if err := st.Put(rec); err != nil {
		e.storeErrs.Add(1)
		return
	}
	e.storePuts.Add(1)
}
