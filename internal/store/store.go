// Package store is the persistent content-addressed result store: the tier
// below internal/runner's in-process memo cache that survives the process.
// Records are addressed by a stable digest (runner.Key.Digest for simulation
// results, sweep point digests for sweep rows), wrapped in a versioned
// divlab.store/v1 envelope, and guarded end to end by a CRC so a torn or
// bit-rotted record reads as corrupt — never as a silently wrong result.
//
// Two backends implement Store: FS, the on-disk backend with a
// sharded-by-digest-prefix directory layout and atomic write-rename
// publication, and Mem, an in-memory backend for tests that runs the same
// encode/decode path. Both also grant advisory leases (lockfile-with-expiry
// on FS), which resumable sharded sweeps use so concurrent processes — or a
// re-run after a kill — never duplicate in-flight work.
//
// The store holds only validated, deterministic artifacts: a record's
// payload is a pure function of its digest (the digest covers every input of
// the simulation), so concurrent writers of one version racing on one key
// write identical bytes and last-rename-wins is sound. Writers of different
// versions write equivalent payloads, which decode to the same results
// though their bytes may differ (footprint key order, for one).
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"time"
	"unicode/utf8"
)

// SchemaVersion identifies the record envelope. Bump it on any incompatible
// change to the framing or the Record shape; old records then read as
// corrupt and are re-simulated rather than misinterpreted.
const SchemaVersion = "divlab.store/v1"

// Well-known record kinds. The store itself never interprets payloads; the
// kind tells readers which decoder to apply.
const (
	// KindResults marks a runner result set: the payload is a JSON array of
	// sim.Result objects (one for single-core runs, one per core for mixes),
	// read by sim.DecodeResults.
	KindResults = "runner.results/v1"
	// KindSweepPoint marks one sweep grid point: the payload is a validated
	// divlab.exp/v1 report holding that point's rows.
	KindSweepPoint = "sweep.point/v1"
)

// Record is one stored artifact: the envelope around a validated payload.
type Record struct {
	Schema string `json:"schema"`
	// Digest is the content address — the versioned hash of the canonical
	// key description below. Get(digest) must return a record whose Digest
	// field matches, or corrupt.
	Digest string `json:"digest"`
	// Key is the canonical, human-readable description of what the digest
	// hashes (e.g. runner.Key.Canonical()). Readers compare it against their
	// own canonical form, so a digest-version bump or a (vanishingly
	// unlikely) hash collision reads as a miss, never as a wrong result.
	Key string `json:"key"`
	// Kind discriminates the payload decoder (KindResults, KindSweepPoint).
	Kind string `json:"kind"`
	// Payload is the wrapped artifact, stored verbatim. Decode hands it
	// back unscanned: the CRC guards its bytes, and the reader of Kind
	// checks its syntax.
	Payload json.RawMessage `json:"payload"`
}

// Validate checks the envelope invariants before a Put.
func (r *Record) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("store: record schema %q, want %q", r.Schema, SchemaVersion)
	}
	if r.Digest == "" {
		return errors.New("store: record has no digest")
	}
	if strings.ContainsAny(r.Digest, "/\\ \t\n") {
		return fmt.Errorf("store: digest %q is not filesystem-safe", r.Digest)
	}
	if r.Kind == "" {
		return errors.New("store: record has no kind")
	}
	if len(r.Payload) == 0 {
		return errors.New("store: record has no payload")
	}
	return nil
}

// ErrNotFound is returned by Get when no record exists under the digest.
var ErrNotFound = errors.New("store: record not found")

// CorruptError reports a record that exists but cannot be trusted: truncated
// framing, a CRC mismatch, undecodable JSON, or an envelope whose digest
// disagrees with its address. Callers treat corruption as a miss (and
// typically overwrite on the next Put) but may count or log it.
type CorruptError struct {
	Digest string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: record %s corrupt: %s", e.Digest, e.Reason)
}

// IsCorrupt reports whether err (or anything it wraps) is a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Store is the content-addressed record store. Implementations are safe for
// concurrent use by multiple goroutines; FS is additionally safe across
// processes sharing one directory.
type Store interface {
	// Get returns the record stored under digest. It returns ErrNotFound
	// when absent and a CorruptError when present but unreadable.
	Get(digest string) (*Record, error)
	// Put stores the record under rec.Digest, replacing any existing record.
	// Publication is atomic: concurrent readers see either the old record or
	// the new one, never a torn write.
	Put(rec *Record) error
	// TryLease attempts to acquire an advisory lease on name for ttl.
	// It returns (release, true, nil) on success; (nil, false, nil) when the
	// lease is held, unexpired, by someone else. Expired leases are broken
	// and re-acquired. A name holding a slash, backslash, space, tab or
	// newline, or a non-positive ttl, is an error. Leases are advisory: they
	// serialize work, not data — Put never requires one.
	TryLease(name string, ttl time.Duration) (release func() error, ok bool, err error)
}

// checkLease refuses the TryLease arguments no backend may grant: a name FS
// could not use as a lockfile name, and a non-positive ttl, whose lease
// would have expired when granted.
func checkLease(name string, ttl time.Duration) error {
	if strings.ContainsAny(name, "/\\ \t\n") {
		return fmt.Errorf("store: lease name %q is not filesystem-safe", name)
	}
	if ttl <= 0 {
		return fmt.Errorf("store: lease ttl %v must be positive", ttl)
	}
	return nil
}

// crcTable is the Castagnoli polynomial, the conventional choice for storage
// checksums (hardware-accelerated on common platforms).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode frames a record for storage: a one-line header carrying the schema,
// the body length and a CRC32-C over the body, followed by the JSON body.
// The header guards the body, so any truncation or corruption of either is
// detected on decode.
func Encode(rec *Record) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record %s: %w", rec.Digest, err)
	}
	return frame(body), nil
}

// frame prefixes a record body with its header line.
func frame(body []byte) []byte {
	header := fmt.Sprintf("%s len=%d crc32c=%08x\n", SchemaVersion, len(body), crc32.Checksum(body, crcTable))
	return append([]byte(header), body...)
}

// Decode parses a framed record, verifying the header, length, CRC and
// envelope. The digest parameter is the address the record was fetched
// under; a mismatch with the envelope's own digest is corruption. The
// returned Payload aliases data, so data must not be reused while the
// record is held.
func Decode(digest string, data []byte) (*Record, error) {
	corrupt := func(format string, args ...interface{}) error {
		return &CorruptError{Digest: digest, Reason: fmt.Sprintf(format, args...)}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, corrupt("no header line (truncated at %d bytes)", len(data))
	}
	header := string(data[:nl])
	var n int
	var crc uint32
	var schema string
	if _, err := fmt.Sscanf(header, "%s len=%d crc32c=%x", &schema, &n, &crc); err != nil {
		return nil, corrupt("unparseable header %q", header)
	}
	if schema != SchemaVersion {
		return nil, corrupt("schema %q, want %q", schema, SchemaVersion)
	}
	if header != fmt.Sprintf("%s len=%d crc32c=%08x", schema, n, crc) {
		return nil, corrupt("non-canonical header %q", header)
	}
	body := data[nl+1:]
	if len(body) != n {
		return nil, corrupt("body is %d bytes, header says %d (truncated record)", len(body), n)
	}
	if got := crc32.Checksum(body, crcTable); got != crc {
		return nil, corrupt("crc32c %08x, header says %08x", got, crc)
	}
	rec, err := readEnvelope(body)
	if err != nil {
		return nil, corrupt("undecodable body: %v", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, corrupt("invalid envelope: %v", err)
	}
	if rec.Digest != digest {
		return nil, corrupt("envelope digest %s does not match address", rec.Digest)
	}
	return rec, nil
}

// readEnvelope reads a body as Encode writes it: the Record's fields in
// declaration order, no whitespace, the payload last. The payload is
// returned unscanned, as the sub-slice between its field name and the
// closing brace: the CRC guards its bytes, and the reader of its kind
// checks its syntax.
func readEnvelope(body []byte) (*Record, error) {
	var rec Record
	rest := body
	for _, f := range []struct {
		key string
		dst *string
	}{
		{`{"schema":`, &rec.Schema},
		{`,"digest":`, &rec.Digest},
		{`,"key":`, &rec.Key},
		{`,"kind":`, &rec.Kind},
	} {
		var ok bool
		if rest, ok = bytes.CutPrefix(rest, []byte(f.key)); !ok {
			return nil, fmt.Errorf("want %s", f.key)
		}
		s, n, err := readString(rest)
		if err != nil {
			return nil, fmt.Errorf("%s value: %w", f.key, err)
		}
		*f.dst, rest = s, rest[n:]
	}
	payload, ok := bytes.CutPrefix(rest, []byte(`,"payload":`))
	if !ok {
		return nil, errors.New(`want ,"payload":`)
	}
	payload, ok = bytes.CutSuffix(payload, []byte("}"))
	if !ok || len(payload) == 0 || isSpace(payload[0]) || isSpace(payload[len(payload)-1]) {
		return nil, errors.New("payload must be non-empty, unpadded and close the envelope")
	}
	rec.Payload = payload
	return &rec, nil
}

// readString reads the JSON string at the start of b and returns it with
// its encoded length. A string with no escapes and valid UTF-8 is copied
// as is; anything else is unquoted by encoding/json.
func readString(b []byte) (string, int, error) {
	if len(b) == 0 || b[0] != '"' {
		return "", 0, errors.New("want a string")
	}
	plain := true
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if raw := b[1:i]; plain && utf8.Valid(raw) {
				return string(raw), i + 1, nil
			}
			var s string
			err := json.Unmarshal(b[:i+1], &s)
			return s, i + 1, err
		case c == '\\':
			plain = false
			i++
		case c < ' ':
			return "", 0, errors.New("control character in string")
		}
	}
	return "", 0, errors.New("unterminated string")
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
