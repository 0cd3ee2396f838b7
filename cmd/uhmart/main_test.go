package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uhm/internal/core"
	"uhm/internal/store"
)

const testSrc = `
program arttest;
var i, acc;
begin
  i := 0;
  acc := 1;
  while i < 7 do
  begin
    acc := acc + acc;
    i := i + 1
  end;
  print acc
end.`

// populatedStore builds one enriched artifact into a fresh store directory
// and returns the directory and the artifact's content address.
func populatedStore(t *testing.T) (string, [sha256.Size]byte) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.BuildSource("arttest", testSrc, core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := art.Predecoded(core.DefaultConfig().Degree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Trace(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(art.Snapshot(), testSrc); err != nil {
		t.Fatal(err)
	}
	return dir, sha256.Sum256([]byte(testSrc))
}

func runCmd(t *testing.T, cmd string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := dispatch(cmd, args, &out)
	return out.String(), err
}

func TestLs(t *testing.T) {
	dir, key := populatedStore(t)
	out, err := runCmd(t, "ls", "-store", dir)
	if err != nil {
		t.Fatal(err)
	}
	short := hex.EncodeToString(key[:])[:16]
	if !strings.Contains(out, short) || !strings.Contains(out, "stack") ||
		!strings.Contains(out, "1 containers") {
		t.Fatalf("ls output missing entry:\n%s", out)
	}
	if _, err := runCmd(t, "ls", "-store", dir, "extra"); err == nil {
		t.Fatal("ls accepted positional arguments")
	}
}

func TestVerify(t *testing.T) {
	dir, key := populatedStore(t)
	out, err := runCmd(t, "verify", "-store", dir)
	if err != nil {
		t.Fatalf("verify failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok") || !strings.Contains(out, "1 containers verified") {
		t.Fatalf("verify output:\n%s", out)
	}

	// Prefix selection, case-insensitive.
	prefix := strings.ToUpper(hex.EncodeToString(key[:])[:8])
	if _, err := runCmd(t, "verify", "-store", dir, prefix); err != nil {
		t.Fatalf("verify by prefix: %v", err)
	}
	if _, err := runCmd(t, "verify", "-store", dir, "ffff0000"); err == nil {
		t.Fatal("verify accepted an unmatched prefix")
	}

	// Corrupt the container: verify must FAIL and return an error.
	files, _ := filepath.Glob(filepath.Join(dir, "*.uhma"))
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCmd(t, "verify", "-store", dir)
	if err == nil {
		t.Fatalf("verify of corrupt store succeeded:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Fatalf("verify output lacks FAIL line:\n%s", out)
	}
}

// TestVerifyRejectsAlteredTrace: a container that verifies by hash but whose
// trace disagrees with a fresh recording — the trace a warm start would bind
// without executing — fails verify, and the FAIL line names the container.
func TestVerifyRejectsAlteredTrace(t *testing.T) {
	dir, key := populatedStore(t)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	img, err := st.Get(key, core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	snap, tr := *img.Snap, *img.Snap.Trace
	tr.Output = slices.Clone(tr.Output)
	tr.Output[0]++
	snap.Trace = &tr
	if err := st.Put(&snap, img.Source); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t, "verify", "-store", dir)
	if err == nil {
		t.Fatalf("verify accepted an altered trace:\n%s", out)
	}
	if !strings.Contains(out, "FAIL  "+hex.EncodeToString(key[:])[:16]) || !strings.Contains(out, "trace") {
		t.Fatalf("verify output does not name the container's trace:\n%s", out)
	}
}

func TestExportImport(t *testing.T) {
	dir, key := populatedStore(t)
	bundle := filepath.Join(t.TempDir(), "artifacts.bundle")
	out, err := runCmd(t, "export", "-store", dir, "-o", bundle)
	if err != nil {
		t.Fatalf("export: %v\n%s", err, out)
	}

	dst := t.TempDir()
	out, err = runCmd(t, "import", "-store", dst, bundle)
	if err != nil {
		t.Fatalf("import: %v\n%s", err, out)
	}
	if !strings.Contains(out, "1 containers imported") || !strings.Contains(out, "arttest") {
		t.Fatalf("import output:\n%s", out)
	}
	st, err := store.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	img, err := st.Get(key, core.LevelStack)
	if err != nil {
		t.Fatalf("imported container unreadable: %v", err)
	}
	if _, err := img.Artifact(); err != nil {
		t.Fatalf("imported container does not rehydrate: %v", err)
	}

	// export to stdout ("-") writes the raw bundle bytes.
	raw, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatal(err)
	}
	out, err = runCmd(t, "export", "-store", dir, "-o", "-")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(raw) {
		t.Fatal("stdout export differs from file export")
	}

	// A truncated bundle is refused whole.
	if err := os.WriteFile(bundle, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	if _, err := runCmd(t, "import", "-store", empty, bundle); err == nil {
		t.Fatal("import accepted a truncated bundle")
	}
}

func TestDispatchErrors(t *testing.T) {
	if _, err := runCmd(t, "frobnicate"); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("unknown subcommand error = %v", err)
	}
	for _, cmd := range []string{"ls", "verify", "export", "import"} {
		if _, err := runCmd(t, cmd); err == nil {
			t.Fatalf("%s without -store succeeded", cmd)
		}
	}
	if _, err := runCmd(t, "export", "-store", t.TempDir()); err == nil {
		t.Fatal("export without -o succeeded")
	}
	if _, err := runCmd(t, "import", "-store", t.TempDir()); err == nil {
		t.Fatal("import without files succeeded")
	}
	if out, err := runCmd(t, "help"); err != nil || !strings.Contains(out, "usage:") {
		t.Fatalf("help = %v:\n%s", err, out)
	}
}
