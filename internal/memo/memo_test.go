package memo

// Satellite coverage for the content-addressed memo cache: concurrent
// identical submissions execute once (singleflight), a cache hit returns
// bytes identical to a fresh computation, corrupted or truncated entries
// are detected by the integrity header and recomputed rather than served,
// entries another build wrote are recomputed, and a panicking compute
// releases its flight.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustHit returns the stored value for key and fails the test if Do has to
// compute it.
func mustHit(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	val, hit, err := s.Do(context.Background(), key, func(ctx context.Context) ([]byte, error) {
		return nil, fmt.Errorf("%s: not stored", key)
	})
	if err != nil || !hit {
		t.Fatalf("Do(%s): hit=%v err=%v, want a stored value", key, hit, err)
	}
	return val
}

// mustStore computes val under key through Do and fails the test unless
// Do ran the computation.
func mustStore(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	ran := false
	if _, _, err := s.Do(context.Background(), key, func(ctx context.Context) ([]byte, error) {
		ran = true
		return val, nil
	}); err != nil || !ran {
		t.Fatalf("Do(%s): computed=%v err=%v, want a fresh computation", key, ran, err)
	}
}

// TestDoSingleflight: N concurrent Do calls for the same key run compute
// exactly once; every caller sees the same bytes, and exactly one caller is
// the (miss-counted) leader.
func TestDoSingleflight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		close(started)
		<-release // hold the flight open until every follower has joined
		return []byte(`{"v":42}`), nil
	}

	const callers = 8
	var (
		wg   sync.WaitGroup
		vals [callers][]byte
		hits [callers]bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], hits[0], _ = s.Do(context.Background(), "k", compute)
	}()
	<-started // the leader owns the flight; followers must join it
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], hits[i], _ = s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				t.Error("follower ran compute despite in-flight leader")
				return nil, nil
			})
		}(i)
	}
	// Wait until all followers are parked on the flight before releasing.
	for {
		st := s.Stats()
		if st.FlightHits == callers-1 {
			break
		}
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	leader := 0
	for i := range vals {
		if !bytes.Equal(vals[i], []byte(`{"v":42}`)) {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if !hits[i] {
			leader++
		}
	}
	if leader != 1 {
		t.Fatalf("%d callers reported a miss, want exactly 1 (the leader)", leader)
	}
	st := s.Stats()
	if st.Misses != 1 || st.FlightHits != callers-1 {
		t.Fatalf("stats misses=%d flightHits=%d, want 1 and %d", st.Misses, st.FlightHits, callers-1)
	}
}

// TestHitBytesIdentical: the bytes served by a hit — same store and after a
// reopen — are byte-identical to the fresh computation's.
func TestHitBytesIdentical(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fresh := []byte(`{"workload":"mcf","cycles":123456,"cpi":1.2345678901234567}`)
	got, hit, err := s.Do(context.Background(), "cell", func(ctx context.Context) ([]byte, error) {
		return fresh, nil
	})
	if err != nil || hit || !bytes.Equal(got, fresh) {
		t.Fatalf("fresh Do: val=%q hit=%v err=%v", got, hit, err)
	}
	again, hit, err := s.Do(context.Background(), "cell", func(ctx context.Context) ([]byte, error) {
		t.Error("compute ran on a warm key")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(again, fresh) {
		t.Fatalf("warm Do: val=%q hit=%v err=%v", again, hit, err)
	}
	// A reopened store (fresh process) serves the same bytes from disk.
	if reopened := mustHit(t, mustOpen(t, dir), "cell"); !bytes.Equal(reopened, fresh) {
		t.Fatalf("reopened store served %q", reopened)
	}
}

// TestCorruptionDetected: truncated values, flipped bits, mangled headers,
// and empty files all fail the integrity check, count as misses, and are
// recomputed.
func TestCorruptionDetected(t *testing.T) {
	val := []byte(`{"v":"payload-that-matters"}`)
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"header-mangled", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("{not json\n"+string(val)), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			if _, _, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				return val, nil
			}); err != nil {
				t.Fatal(err)
			}
			c.corrupt(t, filepath.Join(dir, "k"+entrySuffix))
			var recomputed atomic.Int64
			got, hit, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				recomputed.Add(1)
				return val, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if hit || recomputed.Load() != 1 {
				t.Fatalf("corrupted entry served as a hit (hit=%v recomputed=%d)", hit, recomputed.Load())
			}
			if !bytes.Equal(got, val) {
				t.Fatalf("recompute returned %q, want %q", got, val)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter %d, want 1", st.Corrupt)
			}
			// The rewritten entry must verify again.
			if fixed := mustHit(t, s, "k"); !bytes.Equal(fixed, val) {
				t.Fatalf("rewritten entry served %q", fixed)
			}
		})
	}
}

// TestComputeErrorNotCached: a failed compute caches nothing; the next Do
// retries and can succeed.
func TestComputeErrorNotCached(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	boom := fmt.Errorf("transient blip")
	if _, _, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v, want the compute error", err)
	}
	got, hit, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil || hit || string(got) != `{"ok":true}` {
		t.Fatalf("retry Do: val=%q hit=%v err=%v", got, hit, err)
	}
}

// TestFailedPutCounted: a value Do computes but cannot store still reaches
// the caller, and the failed write is counted in Corrupt.
func TestFailedPutCounted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	got, hit, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil || hit || string(got) != `{"ok":true}` {
		t.Fatalf("Do over a removed store: val=%q hit=%v err=%v", got, hit, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats after a failed write: %+v, want Corrupt 1 and no entries", st)
	}
}

// TestStatsReadsDirectory: the entry files are the whole store. Stats counts
// them and their bytes, a file removed behind the store's back is a miss in
// every store over the directory, and other files are not entries.
func TestStatsReadsDirectory(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, key := range []string{"a", "b", "c"} {
		mustStore(t, s, key, []byte(`{"k":"`+key+`"}`))
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, key := range []string{"a", "b", "c"} {
		info, err := os.Stat(filepath.Join(dir, key+entrySuffix))
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
	}
	if st := s.Stats(); st.Entries != 3 || st.Bytes != size {
		t.Fatalf("stats entries=%d bytes=%d, want 3 and %d", st.Entries, st.Bytes, size)
	}
	if err := os.Remove(filepath.Join(dir, "b"+entrySuffix)); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	for _, st := range []*Store{s, s2} {
		if got := st.Stats().Entries; got != 2 {
			t.Fatalf("entries after an out-of-band delete = %d, want 2", got)
		}
		if got := mustHit(t, st, "c"); string(got) != `{"k":"c"}` {
			t.Fatalf("c served %q", got)
		}
	}
	mustStore(t, s2, "b", []byte(`{"k":"b"}`))
	if st := s2.Stats(); st.Entries != 3 || st.Corrupt != 0 {
		t.Fatalf("stats after recomputing b: %+v, want 3 entries and nothing corrupt", st)
	}
}

// TestOtherBuildRecomputed: an entry another build wrote is never served.
// It is a plain miss, not a corrupt entry; the recomputed value replaces it
// and is served to the next Do.
func TestOtherBuildRecomputed(t *testing.T) {
	dir := t.TempDir()
	old := mustOpen(t, dir)
	old.build = "another build"
	mustStore(t, old, "k", []byte(`{"cycles":130}`))

	s := mustOpen(t, dir)
	mustStore(t, s, "k", []byte(`{"cycles":120}`))
	if got := mustHit(t, s, "k"); string(got) != `{"cycles":120}` {
		t.Fatalf("served %q after the recompute, want this build's value", got)
	}
	if st := s.Stats(); st.Corrupt != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want one miss, one entry and nothing corrupt", st)
	}
}

// TestPanicReleasesFlight: a compute that panics still ends its flight. The
// panic reaches the leader's caller, a follower waiting on the flight gets
// an error at once, and a later Do for the key computes afresh.
func TestPanicReleasesFlight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan any)
	go func() {
		defer func() { leader <- recover() }()
		s.Do(ctx, "k", func(ctx context.Context) ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	follower := make(chan error)
	go func() {
		_, _, err := s.Do(ctx, "k", func(ctx context.Context) ([]byte, error) {
			t.Error("follower ran compute despite in-flight leader")
			return nil, nil
		})
		follower <- err
	}()
	for s.Stats().FlightHits != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-leader; r != "boom" {
		t.Fatalf("leader's caller recovered %v, want the compute's panic", r)
	}
	if err := <-follower; err == nil || ctx.Err() != nil {
		t.Fatalf("follower got %v (context %v), want the leader's failure before the deadline", err, ctx.Err())
	}
	got, hit, err := s.Do(ctx, "k", func(ctx context.Context) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil || hit || string(got) != `{"ok":true}` {
		t.Fatalf("Do after the panic: val=%q hit=%v err=%v, want a fresh computation", got, hit, err)
	}
}
