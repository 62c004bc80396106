// Package memo is the content-addressed result store behind the simulation
// service (internal/serve) and the campaign CLIs' -cache flag (through
// campaign.CacheExec): a deterministic cell's canonical JSON value,
// keyed by the content hash of its spec (campaign.Key over workload, defense,
// consistency, seed, budget, kernel). Because every simulation in this repo
// is proven byte-deterministic, a memoized value is byte-exact — a cache hit
// is indistinguishable from a fresh run, so repeated traffic for the same
// cell costs one disk read instead of one simulation.
//
// Three layers of protection keep the cache trustworthy:
//
//   - Integrity: every entry file carries a header with the sha256 and length
//     of its value bytes. A truncated, torn, or bit-flipped entry fails the
//     check on read and is deleted and recomputed — corruption can degrade a
//     hit into a miss, never into a wrong answer.
//   - Atomicity: entries are written to a temp file and renamed into place,
//     so a crash mid-write leaves either no entry or a whole one (the rename
//     is atomic on POSIX filesystems).
//   - In-flight deduplication (singleflight): concurrent Do calls for the
//     same key run the compute function once; followers wait and share the
//     leader's bytes. Identical requests from many users cost one simulation
//     even before the value reaches disk.
//
// The store is bounded: past MaxEntries, the least-recently-used entry is
// evicted. Recency is a persisted logical sequence number (never wall-clock),
// so eviction order is reproducible. Close persists the index (keys, sizes,
// recency) to index.json; Open reloads it and reconciles against the entry
// files actually on disk, so a SIGKILL between index writes costs nothing
// but a cold recency order.
package memo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// IndexSchema identifies the persisted index format; Open ignores others and
// falls back to a directory scan.
const IndexSchema = "simcache-index/v1"

// entrySchema identifies the per-entry header format.
const entrySchema = "simcache/v1"

// indexName is the persisted index file inside the store directory.
const indexName = "index.json"

// entrySuffix marks entry files; everything else in the directory is ignored.
const entrySuffix = ".cell"

// Options tunes a store.
type Options struct {
	// MaxEntries bounds the store; 0 means unlimited. When a Put would
	// exceed it, least-recently-used entries are evicted first.
	MaxEntries int
}

// Stats is a snapshot of the store's counters. Hits counts disk hits plus
// in-flight dedup hits (FlightHits is the dedup share of that total);
// Corrupt counts entries that failed their integrity check and were
// discarded, plus values Do computed but could not store.
type Stats struct {
	Hits       uint64 `json:"hits"`
	FlightHits uint64 `json:"flight_hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
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

// entry is one cached value's index record.
type entry struct {
	Size int64  `json:"size"`
	Seq  uint64 `json:"seq"` // logical recency; higher = more recent
}

// entryHeader is the first line of an entry file; the value bytes follow the
// newline.
type entryHeader struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	Len    int64  `json:"len"`
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Store is the on-disk content-addressed cache. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	flights map[string]*flight
	seq     uint64
	stats   Stats
}

// persistedIndex is the index.json format.
type persistedIndex struct {
	Schema  string `json:"schema"`
	Seq     uint64 `json:"seq"`
	Entries []struct {
		Key  string `json:"key"`
		Size int64  `json:"size"`
		Seq  uint64 `json:"seq"`
	} `json:"entries"`
}

// Open creates (or reopens) the store rooted at dir. An existing index.json
// seeds the recency order; entry files on disk that the index does not know
// about (a crash before the last Close) are adopted with cold recency, and
// index records whose files vanished are dropped.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: creating store dir %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		entries: make(map[string]*entry),
		flights: make(map[string]*flight),
	}
	// Seed from the persisted index, if one survives and parses. Any
	// problem falls through to the directory scan — the index is a recency
	// optimization, never the source of truth.
	if data, err := os.ReadFile(filepath.Join(dir, indexName)); err == nil {
		var idx persistedIndex
		if json.Unmarshal(data, &idx) == nil && idx.Schema == IndexSchema {
			s.seq = idx.Seq
			for _, e := range idx.Entries {
				s.entries[e.Key] = &entry{Size: e.Size, Seq: e.Seq}
			}
		}
	}
	// Reconcile against the files actually present.
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("memo: scanning store dir %s: %w", dir, err)
	}
	onDisk := make(map[string]int64)
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entrySuffix) {
			continue
		}
		key := strings.TrimSuffix(de.Name(), entrySuffix)
		info, err := de.Info()
		if err != nil {
			continue
		}
		onDisk[key] = info.Size()
	}
	for key := range s.entries {
		if _, ok := onDisk[key]; !ok {
			delete(s.entries, key)
		}
	}
	// Adopt orphans in sorted order so their relative recency is
	// deterministic.
	var orphans []string
	for key := range onDisk {
		if _, ok := s.entries[key]; !ok {
			orphans = append(orphans, key)
		}
	}
	sort.Strings(orphans)
	for _, key := range orphans {
		s.seq++
		s.entries[key] = &entry{Size: onDisk[key], Seq: s.seq}
	}
	s.recountLocked()
	return s, nil
}

// recountLocked refreshes the entry-count/byte-size stats. Callers hold mu.
func (s *Store) recountLocked() {
	s.stats.Entries = len(s.entries)
	s.stats.Bytes = 0
	for _, e := range s.entries {
		s.stats.Bytes += e.Size
	}
}

// path returns the entry file for a key.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// Get returns the cached value for key, verifying its integrity. A missing,
// truncated, or corrupted entry counts as a miss (and is removed so the next
// Put rewrites it cleanly).
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	val, ok := s.getLocked(key)
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return val, ok
}

// getLocked is Get without the hit/miss accounting, for Do. Callers hold mu.
func (s *Store) getLocked(key string) ([]byte, bool) {
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	val, err := readEntry(s.path(key), key)
	if err != nil {
		// Integrity failure: drop the entry so it is recomputed. The
		// distinction between "file vanished" and "file corrupt" does not
		// matter to the caller — both are a miss.
		s.stats.Corrupt++
		delete(s.entries, key)
		os.Remove(s.path(key))
		s.recountLocked()
		return nil, false
	}
	s.seq++
	e.Seq = s.seq
	return val, true
}

// readEntry loads and verifies one entry file.
func readEntry(path, key string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, errors.New("memo: entry has no header line")
	}
	var h entryHeader
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return nil, fmt.Errorf("memo: entry header corrupt: %w", err)
	}
	if h.Schema != entrySchema {
		return nil, fmt.Errorf("memo: entry schema %q, want %q", h.Schema, entrySchema)
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

// Put stores val under key (atomically: temp file + rename) and evicts the
// least-recently-used entries if the store exceeds its bound.
func (s *Store) Put(key string, val []byte) error {
	sum := sha256.Sum256(val)
	header, err := json.Marshal(entryHeader{
		Schema: entrySchema,
		Key:    key,
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

	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	// Size matches what Open's directory scan will see: header + \n + value.
	s.entries[key] = &entry{Size: int64(len(header)) + 1 + int64(len(val)), Seq: s.seq}
	s.evictLocked(key)
	s.recountLocked()
	return nil
}

// evictLocked removes least-recently-used entries until the store fits its
// bound, never evicting the just-written key. Callers hold mu.
func (s *Store) evictLocked(justPut string) {
	if s.opts.MaxEntries <= 0 {
		return
	}
	for len(s.entries) > s.opts.MaxEntries {
		victim, minSeq := "", ^uint64(0)
		for key, e := range s.entries {
			if key != justPut && e.Seq < minSeq {
				victim, minSeq = key, e.Seq
			}
		}
		if victim == "" {
			return
		}
		delete(s.entries, victim)
		os.Remove(s.path(victim))
		s.stats.Evictions++
	}
}

// Do returns the value for key, computing it at most once across concurrent
// callers (singleflight): the first caller runs compute, followers wait and
// share the result. hit reports whether the value came from the cache or a
// concurrent computation rather than this call's own compute. A compute
// failure is returned to the leader and every follower, and nothing is
// cached, so a later Do retries. A failed Put does not fail Do — the value
// is correct, only its durability is lost — but it is counted in Corrupt.
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
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	f.val, f.err = compute(ctx)
	var perr error
	if f.err == nil {
		perr = s.Put(key, f.val)
	}
	s.mu.Lock()
	if perr != nil {
		s.stats.Corrupt++
	}
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close persists the index so the next Open restores the recency order
// without a cold scan. The entry files themselves are already durable; a
// crash that skips Close loses only recency, never values.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := persistedIndex{Schema: IndexSchema, Seq: s.seq}
	keys := make([]string, 0, len(s.entries))
	for key := range s.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		e := s.entries[key]
		idx.Entries = append(idx.Entries, struct {
			Key  string `json:"key"`
			Size int64  `json:"size"`
			Seq  uint64 `json:"seq"`
		}{Key: key, Size: e.Size, Seq: e.Seq})
	}
	out, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("memo: marshaling index: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-index-*")
	if err != nil {
		return fmt.Errorf("memo: creating index temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(out, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("memo: writing index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("memo: closing index: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)); err != nil {
		return fmt.Errorf("memo: installing index: %w", err)
	}
	return nil
}
