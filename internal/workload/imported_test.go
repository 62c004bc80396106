package workload_test

// Imported-trace admission tests: the gates are spec-derived invariants
// (structure + CRC, canonical re-encoding, instruction conservation
// against the golden interpreter), so every rejection here is a trace that
// could silently corrupt a matrix if admitted.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"invisispec/internal/isa"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

// writeHmmerTrace records n golden-interpreter commits of the hmmer kernel
// under the given trace name and writes the v2 file into dir.
func writeHmmerTrace(t *testing.T, dir, name string, n uint64) string {
	t.Helper()
	tr, _ := trace.RecordInterp(name, workload.MustSPEC("hmmer"), n)
	path := filepath.Join(dir, name+".trace")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestImportFileRoundTrip(t *testing.T) {
	path := writeHmmerTrace(t, t.TempDir(), "imported-hmmer-test", 1500)
	w, err := workload.ImportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "imported-hmmer-test" {
		t.Errorf("Name() = %q, want the trace header name", w.Name())
	}
	if w.Class() != workload.ClassImported {
		t.Errorf("Class() = %v, want imported", w.Class())
	}
	if w.DefaultCores() != 1 {
		t.Errorf("DefaultCores() = %d, want 1", w.DefaultCores())
	}
	progs, err := w.Programs(1)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.MustSPEC("hmmer")
	if !reflect.DeepEqual(progs[0].Insts, orig.Insts) {
		t.Error("replayed instructions differ from the recorded program")
	}
	if !reflect.DeepEqual(progs[0].InitMem, orig.InitMem) {
		t.Error("replayed InitMem differs from the recorded program")
	}
	if progs[0].Entry != orig.Entry || progs[0].Handler != orig.Handler {
		t.Error("replayed entry/handler differ from the recorded program")
	}
	// A trace replays only at its recorded width.
	if _, err := w.Programs(2); err == nil {
		t.Error("imported 1-core trace accepted a 2-core build")
	}
}

func TestImportDirRegisters(t *testing.T) {
	dir := t.TempDir()
	writeHmmerTrace(t, dir, "imported-dir-b", 400)
	writeHmmerTrace(t, dir, "imported-dir-a", 400)
	names, err := workload.ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Registration follows sorted file-name order, deterministically.
	if !reflect.DeepEqual(names, []string{"imported-dir-a", "imported-dir-b"}) {
		t.Fatalf("ImportDir registered %v", names)
	}
	for _, n := range names {
		w, err := workload.Lookup(n)
		if err != nil {
			t.Errorf("Lookup(%q) after import: %v", n, err)
			continue
		}
		if w.Class() != workload.ClassImported {
			t.Errorf("%s: class %v, want imported", n, w.Class())
		}
	}
	// Imported entries join the registry but never a default suite.
	for _, n := range append(workload.SuiteNames(false), workload.SuiteNames(true)...) {
		if strings.HasPrefix(n, "imported-dir-") {
			t.Errorf("imported workload %q leaked into a default suite", n)
		}
	}
	// Re-importing the same corpus collides on the trace names.
	if _, err := workload.ImportDir(dir); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("re-import err = %v, want duplicate-name rejection", err)
	}
}

// TestImportDirRejectsMissingPath: a path that does not exist, or is not a
// directory, fails the import instead of reading as an empty corpus; an
// existing empty directory still imports nothing.
func TestImportDirRejectsMissingPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := workload.ImportDir(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing dir: err = %v, want os.ErrNotExist", err)
	}
	file := filepath.Join(dir, "not-a-dir.trace")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.ImportDir(file); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("file path: err = %v, want a not-a-directory rejection", err)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if names, err := workload.ImportDir(empty); err != nil || len(names) != 0 {
		t.Errorf("empty dir: names %v, err %v; want none and no error", names, err)
	}
}

func TestImportRejectsCorruptCRC(t *testing.T) {
	path := writeHmmerTrace(t, t.TempDir(), "imported-crc-test", 300)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xFF // flip one body byte; the trailer no longer matches
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.LoadTraceFile(path); !errors.Is(err, trace.ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
}

func TestImportRejectsTruncation(t *testing.T) {
	path := writeHmmerTrace(t, t.TempDir(), "imported-trunc-test", 300)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.LoadTraceFile(path); err == nil {
		t.Fatal("truncated trace imported")
	}
}

// writeRaw writes raw bytes to a fresh file and returns its path.
func writeRaw(t *testing.T, name, raw string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestImportRejectsWrongMagic(t *testing.T) {
	path := writeRaw(t, "bogus.trace", "not a trace at all")
	if _, err := workload.LoadTraceFile(path); !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestImportRejectsV1Stream feeds the importer a stream in ispectr1, the
// events-only format ispectr2 replaced: its 8-byte header, then one record
// (cycle 1, pc 0, a nop). It carries no program to replay, so it must be
// refused at the magic, before any later gate reads it.
func TestImportRejectsV1Stream(t *testing.T) {
	path := writeRaw(t, "v1.trace", "ispectr1\x01\x00\x00\x00")
	if _, err := workload.LoadTraceFile(path); !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// A trace whose event stream does not match its own program must fail the
// instruction-conservation gate: the interpreter is the arbiter, so a
// tampered (or wrongly recorded) stream cannot enter the conformance
// matrix as a false oracle.
func TestImportRejectsTamperedStream(t *testing.T) {
	tr, _ := trace.RecordInterp("imported-tamper-test", workload.MustSPEC("hmmer"), 500)
	tampered := -1
	for i, ev := range tr.Events[0] {
		if ev.WroteReg && ev.Op != isa.OpCycle {
			tr.Events[0][i].RegValue++
			tampered = i
			break
		}
	}
	if tampered == -1 {
		t.Fatal("no architectural register write in the first 500 hmmer commits")
	}
	path := filepath.Join(t.TempDir(), "tampered.trace")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	_, err := workload.LoadTraceFile(path)
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("err = %v, want golden-interpreter divergence at commit %d", err, tampered)
	}
}
