package campaign

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/runner"
)

// TestSweepDeterminism is the sweep pipeline's acceptance gate on a small
// but real matrix (2 SPEC kernels x TSO x every registered defense):
//   - a 4-worker sweep's bench JSON is byte-identical to a 1-worker sweep's,
//     and every cell equals a direct serial harness measurement;
//   - the stepped kernel's artifact is byte-identical to the fast kernel's;
//   - a fast and a stepped pass store into one cache (one entry per cell
//     per kernel), and rerunning both serves every cell from it without
//     running any.
func TestSweepDeterminism(t *testing.T) {
	jobs := runner.Matrix([]string{"sjeng", "libquantum"}, false,
		[]config.Consistency{config.TSO}, config.AllDefenses(), nil, 2000, 4000)
	sweep := func(kernel engine.Kernel, opts Options) ([]runner.JobResult, []byte) {
		t.Helper()
		results, b, err := Sweep(context.Background(), "determinism", jobs, kernel, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Degraded) > 0 {
			t.Fatalf("%s sweep degraded %d cells: %s", kernel, len(b.Degraded), b.Degraded[0].Error)
		}
		var buf bytes.Buffer
		if err := runner.WriteBenchJSON(&buf, b); err != nil {
			t.Fatal(err)
		}
		return results, buf.Bytes()
	}

	serialResults, serial := sweep(engine.KernelFast, Options{Workers: 1})
	if _, parallel := sweep(engine.KernelFast, Options{Workers: 4}); !bytes.Equal(serial, parallel) {
		t.Fatalf("bench JSON differs between 1-worker and 4-worker sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	for i, j := range jobs {
		want, err := harness.MeasureWorkload(j.Workload, j.Defense, j.Consistency, j.Warmup, j.Measure)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serialResults[i].Result, want) {
			t.Fatalf("%s: swept result differs from a direct measurement", j)
		}
	}
	if _, stepped := sweep(engine.KernelStepped, Options{Workers: 4}); !bytes.Equal(serial, stepped) {
		t.Fatalf("stepped-kernel bench JSON differs from fast:\n--- fast ---\n%s\n--- stepped ---\n%s", serial, stepped)
	}

	store := openStore(t, t.TempDir())
	opts := Options{Workers: 4, Exec: CacheExec(store, nil, nil)}
	sweep(engine.KernelFast, opts)
	sweep(engine.KernelStepped, opts)
	if got, want := store.Stats().Entries, 2*len(jobs); got != want {
		t.Fatalf("cache holds %d entries after both passes, want %d", got, want)
	}
	opts.Exec = CacheExec(store, func(ctx context.Context, c Cell) (any, error) {
		t.Errorf("cell %s ran with its value cached", c.Name)
		return nil, errors.New("cell re-ran")
	}, nil)
	for _, k := range []engine.Kernel{engine.KernelFast, engine.KernelStepped} {
		if _, cached := sweep(k, opts); !bytes.Equal(serial, cached) {
			t.Fatalf("%s pass served from the cache differs:\n%s", k, cached)
		}
	}
	if st := store.Stats(); st.Entries != 2*len(jobs) || st.Hits != uint64(2*len(jobs)) {
		t.Fatalf("cache stats after the cached passes: %+v, want %d entries and as many hits", st, 2*len(jobs))
	}
}
