package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// FS is the on-disk backend. Layout under the root:
//
//	objects/<digest[:2]>/<digest>.rec   framed records, sharded by prefix
//	leases/<name>.lock                  advisory leases (JSON: owner, expiry)
//	tmp/                                staging for records (rename) and
//	                                    leases (link); lease break markers
//
// Writes stage into tmp/ and publish with an atomic rename, so readers never
// observe a torn record; because a record's bytes are a pure function of its
// digest, concurrent writers racing on one key rename identical content and
// last-wins is harmless. The backend is safe for concurrent use within a
// process and across processes sharing the directory.
//
// Lease expiry is wall-clock by design (it bounds how long a crashed process
// can block a sweep point); the clock is injectable so tests exercise expiry
// deterministically. Nothing under objects/ depends on time.
type FS struct {
	root string
	now  func() time.Time
}

// seq disambiguates staging filenames within a process.
var seq atomic.Uint64

// OpenFS opens (creating if needed) a store rooted at dir.
func OpenFS(dir string) (*FS, error) {
	for _, sub := range []string{"objects", "leases", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &FS{root: dir, now: time.Now}, nil
}

// WithClock replaces the lease clock (tests drive expiry with a fake clock).
func (s *FS) WithClock(now func() time.Time) *FS {
	s.now = now
	return s
}

// Root returns the store's root directory.
func (s *FS) Root() string { return s.root }

func (s *FS) objectPath(digest string) string {
	prefix := digest
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.root, "objects", prefix, digest+".rec")
}

// Get implements Store.
func (s *FS) Get(digest string) (*Record, error) {
	data, err := os.ReadFile(s.objectPath(digest))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", digest, err)
	}
	return Decode(digest, data)
}

// Put implements Store: stage into tmp/, fsync-free atomic rename into place.
func (s *FS) Put(rec *Record) error {
	data, err := Encode(rec)
	if err != nil {
		return err
	}
	final := s.objectPath(rec.Digest)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", rec.Digest, err)
	}
	tmp := filepath.Join(s.root, "tmp", fmt.Sprintf("put-%d-%d", os.Getpid(), seq.Add(1)))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: stage %s: %w", rec.Digest, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s: %w", rec.Digest, err)
	}
	return nil
}

// Len reports the number of stored records (diagnostics and tests).
func (s *FS) Len() int {
	n := 0
	filepath.WalkDir(filepath.Join(s.root, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".rec") {
			n++
		}
		return nil
	})
	return n
}

// leaseFile is the on-disk lease content.
type leaseFile struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_ns"`
}

// breakEpoch bounds how long a break marker left by a process killed
// mid-break can block its lease: markers are named per epoch of this length
// past the lease's expiry, so the next epoch's breakers use a fresh name.
const breakEpoch = time.Minute

// TryLease implements Store. A lease is staged complete in tmp/ and
// published with os.Link, which fails if the lockfile exists, so a claimant
// never reads a partly written lease and exactly one claimant publishes.
// An existing, unexpired lease loses the race; an expired one is broken by
// removeLease, and the claim is retried once.
func (s *FS) TryLease(name string, ttl time.Duration) (func() error, bool, error) {
	if err := checkLease(name, ttl); err != nil {
		return nil, false, err
	}
	path := filepath.Join(s.root, "leases", name+".lock")
	own := leaseFile{Owner: fmt.Sprintf("%d-%d", os.Getpid(), seq.Add(1)), Expires: s.now().Add(ttl).UnixNano()}
	body, err := json.Marshal(own)
	if err != nil {
		return nil, false, err
	}
	staged := filepath.Join(s.root, "tmp", "lease-"+own.Owner)
	if err := os.WriteFile(staged, body, 0o644); err != nil {
		return nil, false, fmt.Errorf("store: stage lease %s: %w", name, err)
	}
	defer os.Remove(staged)
	for attempt := 0; attempt < 2; attempt++ {
		err := os.Link(staged, path)
		if err == nil {
			return func() error { return s.removeLease(path, body, own) }, true, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, false, fmt.Errorf("store: lease %s: %w", name, err)
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // released between our link and read; retry
		}
		if err != nil {
			return nil, false, fmt.Errorf("store: lease %s: %w", name, err)
		}
		var held leaseFile
		if json.Unmarshal(data, &held) == nil && s.now().UnixNano() < held.Expires {
			return nil, false, nil // held and fresh
		}
		// Stale (or unreadable) lease: break it, then retry the link, which
		// at most one claimant wins.
		if err := s.removeLease(path, data, held); err != nil {
			return nil, false, fmt.Errorf("store: break lease %s: %w", name, err)
		}
	}
	return nil, false, nil
}

// removeLease deletes the lockfile iff it still holds want, the bytes of
// lease l: a release, or the break of an expired lease. The lockfile is
// first hard-linked to a marker named after l's owner, and only the process
// whose link succeeds goes on; it removes the lockfile only if the marker
// still holds want. Until that process removes the marker, nobody else can
// act on l, and once the lockfile no longer holds l no marker check passes,
// so a removal never takes a lease published after l. A marker left by a
// process killed mid-removal blocks l only until the next breakEpoch.
func (s *FS) removeLease(path string, want []byte, l leaseFile) error {
	marker := s.breakMarker(path, l)
	if err := os.Link(path, marker); errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrExist) {
		return nil // already gone, or another process is removing it
	} else if err != nil {
		return err
	}
	defer os.Remove(marker)
	got, err := os.ReadFile(marker)
	if err != nil || !bytes.Equal(got, want) {
		return err // the lockfile has moved on to a newer lease
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// breakMarker names the marker for removing lease l from path in the
// current break epoch.
func (s *FS) breakMarker(path string, l leaseFile) string {
	owner := l.Owner
	if strings.ContainsAny(owner, "/\\ \t\n") {
		owner = "" // a damaged lockfile, whose owner must not name a path
	}
	epoch := max(0, (s.now().UnixNano()-l.Expires)/int64(breakEpoch))
	return filepath.Join(s.root, "tmp", fmt.Sprintf("break-%s-%s-%d", filepath.Base(path), owner, epoch))
}
