// Package memo is the content-addressed result store behind the simulation
// service (internal/serve) and the campaign CLIs' -cache flag (through
// campaign.CacheExec): a deterministic cell's canonical JSON value,
// keyed by the content hash of its spec (campaign.Key over workload, defense,
// consistency, seed, budget, kernel). Because every simulation in this repo
// is proven byte-deterministic, a memoized value is byte-exact — a cache hit
// is indistinguishable from a fresh run, so repeated traffic for the same
// cell costs one disk read instead of one simulation.
//
// The store is its directory: one entry file per key and nothing else. No
// index mirrors it, so there is nothing to persist on exit and nothing to
// reconcile on Open; Stats counts the entry files each time it is asked.
// The store has no size bound: to shrink or reset it, delete the directory
// or point the store at a fresh one.
//
// Four layers of protection keep the cache trustworthy:
//
//   - Integrity: every entry file carries a header with the sha256 and length
//     of its value bytes. A truncated, torn, or bit-flipped entry fails the
//     check on read and is deleted and recomputed — corruption can degrade a
//     hit into a miss, never into a wrong answer.
//   - Build stamp: the header also records a digest of the executable that
//     wrote the entry. A cell's key hashes its spec, not the simulator's
//     code, so an entry another build wrote is a plain miss, recomputed and
//     overwritten, and never served. Each binary (benchtable, leakscan,
//     simserver, a test binary) is a build of its own.
//   - Atomicity: entries are written to a temp file and renamed into place,
//     so a crash mid-write leaves either no entry or a whole one (the rename
//     is atomic on POSIX filesystems).
//   - In-flight deduplication (singleflight): concurrent Do calls for the
//     same key run the compute function once; followers wait and share the
//     leader's bytes. Identical requests from many users cost one simulation
//     even before the value reaches disk.
package memo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// entrySchema identifies the per-entry header format.
const entrySchema = "simcache/v2"

// entrySuffix marks entry files; everything else in the directory is ignored.
const entrySuffix = ".cell"

// Stats is a snapshot of the store's counters. Hits counts disk hits plus
// in-flight dedup hits (FlightHits is the dedup share of that total);
// Corrupt counts entries that failed their integrity check and were
// discarded, plus values Do computed but could not store. Entries and Bytes
// are the entry files in the directory when Stats was called.
type Stats struct {
	Hits       uint64 `json:"hits"`
	FlightHits uint64 `json:"flight_hits"`
	Misses     uint64 `json:"misses"`
	Corrupt    uint64 `json:"corrupt"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
}

// HitRate is hits over total lookups (0 when the store is untouched).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entryHeader is the first line of an entry file; the value bytes follow the
// newline.
type entryHeader struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	Build  string `json:"build"`
	SHA256 string `json:"sha256"`
	Len    int64  `json:"len"`
}

// errOtherBuild marks an entry another build wrote: a miss, not corruption.
var errOtherBuild = errors.New("memo: entry written by another build")

// errPanicked is what a flight's followers get when its compute panics.
var errPanicked = errors.New("memo: the computation this call waited on panicked")

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Store is the on-disk content-addressed cache. All methods are safe for
// concurrent use.
type Store struct {
	dir   string
	build string // digest of the running executable, stamped on every entry

	mu      sync.Mutex
	flights map[string]*flight
	stats   Stats // counters only; Stats reads Entries and Bytes from dir
}

// runningBuild is the sha256 of the running executable, hashed once per
// process.
var runningBuild = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})

// Open creates (or reopens) the store rooted at dir. The first Open in a
// process hashes the running executable for the entries' build stamp.
func Open(dir string) (*Store, error) {
	build, err := runningBuild()
	if err != nil {
		return nil, fmt.Errorf("memo: identifying the running build: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: creating store dir %s: %w", dir, err)
	}
	return &Store{dir: dir, build: build, flights: make(map[string]*flight)}, nil
}

// path returns the entry file for a key.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// getLocked returns the stored value for key, verifying its integrity. A
// missing entry or one another build wrote is a miss; a truncated or
// corrupted one is a miss too, counted in Corrupt and removed so the next
// put rewrites it cleanly. Callers hold mu.
func (s *Store) getLocked(key string) ([]byte, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	val, err := s.verify(data, key)
	if errors.Is(err, errOtherBuild) {
		return nil, false
	}
	if err != nil {
		s.stats.Corrupt++
		os.Remove(path)
		return nil, false
	}
	return val, true
}

// verify checks one entry file's bytes and returns its value.
func (s *Store) verify(data []byte, key string) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("memo: entry has no header line")
	}
	var h entryHeader
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return nil, fmt.Errorf("memo: entry header corrupt: %w", err)
	}
	if h.Schema != entrySchema || h.Build != s.build {
		return nil, errOtherBuild
	}
	if h.Key != key {
		return nil, fmt.Errorf("memo: entry key %q under file for %q", h.Key, key)
	}
	val := data[nl+1:]
	if int64(len(val)) != h.Len {
		return nil, fmt.Errorf("memo: entry value %d bytes, header says %d", len(val), h.Len)
	}
	sum := sha256.Sum256(val)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, errors.New("memo: entry value hash mismatch")
	}
	return val, nil
}

// put stores val under key atomically: temp file + rename.
func (s *Store) put(key string, val []byte) error {
	sum := sha256.Sum256(val)
	header, err := json.Marshal(entryHeader{
		Schema: entrySchema,
		Key:    key,
		Build:  s.build,
		SHA256: hex.EncodeToString(sum[:]),
		Len:    int64(len(val)),
	})
	if err != nil {
		return fmt.Errorf("memo: marshaling entry header: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("memo: creating temp entry: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(append(header, '\n'), val...)); err != nil {
		tmp.Close()
		return fmt.Errorf("memo: writing entry for %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("memo: closing entry for %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("memo: installing entry for %s: %w", key, err)
	}
	return nil
}

// Do returns the value for key, computing it at most once across concurrent
// callers (singleflight): the first caller runs compute, followers wait and
// share the result. hit reports whether the value came from the cache or a
// concurrent computation rather than this call's own compute. A compute
// failure is returned to the leader and every follower, and nothing is
// cached, so a later Do retries; a compute that panics releases its
// followers with an error and the panic goes on to the leader's caller. A
// failed put does not fail Do — the value is correct, only its durability
// is lost — but it is counted in Corrupt.
func (s *Store) Do(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) (val []byte, hit bool, err error) {
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.stats.Hits++
		s.stats.FlightHits++
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	if v, ok := s.getLocked(key); ok {
		s.stats.Hits++
		s.mu.Unlock()
		return v, true, nil
	}
	s.stats.Misses++
	// errPanicked stands until compute returns, so it is what followers
	// see if compute panics.
	f := &flight{done: make(chan struct{}), err: errPanicked}
	s.flights[key] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
	}()

	f.val, f.err = compute(ctx)
	if f.err == nil && s.put(key, f.val) != nil {
		s.mu.Lock()
		s.stats.Corrupt++
		s.mu.Unlock()
	}
	return f.val, false, f.err
}

// Stats returns the store's counters and counts the entry files in its
// directory.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	des, _ := os.ReadDir(s.dir) // a vanished directory holds no entries
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entrySuffix) {
			continue
		}
		if info, err := de.Info(); err == nil {
			st.Entries++
			st.Bytes += info.Size()
		}
	}
	return st
}
