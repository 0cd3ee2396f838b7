package service

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"uhm/internal/core"
	"uhm/internal/store"
)

const persistSrc = `
program persisted;
var i, acc;
begin
  i := 1;
  acc := 0;
  while i <= 15 do
  begin
    acc := acc + i * i;
    i := i + 1
  end;
  print acc
end.`

func newStoreService(t *testing.T, dir string) (*Service, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Store: st}), st
}

// TestWriteThroughAndDiskReadThrough pins the two-tier contract: a build
// writes its container through to disk, and a later process (a fresh Service
// on the same directory) serves the same program from that container with
// zero compile-pipeline builds and byte-identical output.
func TestWriteThroughAndDiskReadThrough(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := core.DefaultConfig()

	svc1, _ := newStoreService(t, dir)
	rep1, err := svc1.Run(ctx, sourceReq("persisted", persistSrc, cfg), core.WithDTB)
	if err != nil {
		t.Fatal(err)
	}
	st1 := svc1.Registry().Stats()
	if st1.Builds != 1 {
		t.Fatalf("first process: %d builds, want 1", st1.Builds)
	}
	if st1.DiskEntries != 1 || st1.Disk.Puts == 0 {
		t.Fatalf("first process disk stats = %+v with %d entries, want the container written",
			st1.Disk, st1.DiskEntries)
	}

	// "Restart": a fresh service over the same store directory.
	svc2, _ := newStoreService(t, dir)
	rep2, err := svc2.Run(ctx, sourceReq("persisted", persistSrc, cfg), core.WithDTB)
	if err != nil {
		t.Fatal(err)
	}
	st2 := svc2.Registry().Stats()
	if st2.Builds != 0 {
		t.Fatalf("restarted process: %d builds, want 0 (served from disk)", st2.Builds)
	}
	if st2.Misses != 1 || st2.Disk.Hits != 1 {
		t.Fatalf("restarted process stats = %+v (disk %+v), want 1 memory miss served by 1 disk hit",
			st2, st2.Disk)
	}
	if !slices.Equal(rep1.Output, rep2.Output) || rep1.SemanticCycles != rep2.SemanticCycles {
		t.Fatalf("disk-served run diverges: %v/%d vs %v/%d",
			rep2.Output, rep2.SemanticCycles, rep1.Output, rep1.SemanticCycles)
	}
	if err := svc2.Registry().VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestEnrichmentRePersists pins the Sync write-through: forms that
// materialise after the build — a new degree, the recorded trace — grow the
// container on disk, so a restart gets them back too.
func TestEnrichmentRePersists(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	svc, st := newStoreService(t, dir)

	if _, err := svc.Resolve(sourceReq("persisted", persistSrc, core.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	_, baseBytes := st.Usage()

	// Running records the trace and predecodes the default degree; a second
	// config adds another degree.  Each Sync may re-persist.
	cfg := core.DefaultConfig()
	if _, err := svc.Run(ctx, sourceReq("persisted", persistSrc, cfg), core.WithDTB); err != nil {
		t.Fatal(err)
	}
	cfg.Degree = core.DegreePacked
	if _, err := svc.Run(ctx, sourceReq("persisted", persistSrc, cfg), core.Conventional); err != nil {
		t.Fatal(err)
	}
	entries, grownBytes := st.Usage()
	if entries != 1 {
		t.Fatalf("%d containers, want the one re-persisted in place", entries)
	}
	if grownBytes <= baseBytes {
		t.Fatalf("container did not grow with enrichment: %d -> %d bytes", baseBytes, grownBytes)
	}

	// The restarted process must see the enriched forms: running derives from
	// the persisted trace without recording (PersistableForms counts it).
	svc2, _ := newStoreService(t, dir)
	art2, err := svc2.Resolve(sourceReq("persisted", persistSrc, core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if forms := art2.PersistableForms(); forms < 4 {
		t.Fatalf("rehydrated artifact has %d persistable forms, want DIR + 2 degrees + trace", forms)
	}
	if svc2.Registry().Stats().Builds != 0 {
		t.Fatal("enriched reload still rebuilt")
	}
}

// TestCorruptContainerDegradesToRebuild pins the robustness contract: a
// corrupted container is detected by verify-by-hash, quietly dropped,
// rebuilt from source, and replaced on disk — the request sees only a
// correct answer, and the books stay exact.
func TestCorruptContainerDegradesToRebuild(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := core.DefaultConfig()

	svc1, _ := newStoreService(t, dir)
	rep1, err := svc1.Run(ctx, sourceReq("persisted", persistSrc, cfg), core.WithDTB)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the container on disk.
	files, err := filepath.Glob(filepath.Join(dir, "*.uhma"))
	if err != nil || len(files) != 1 {
		t.Fatalf("glob = %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, st2 := newStoreService(t, dir)
	rep2, err := svc2.Run(ctx, sourceReq("persisted", persistSrc, cfg), core.WithDTB)
	if err != nil {
		t.Fatalf("request over corrupt container failed: %v", err)
	}
	if !slices.Equal(rep1.Output, rep2.Output) {
		t.Fatalf("rebuild after corruption diverges: %v vs %v", rep2.Output, rep1.Output)
	}
	stats := svc2.Registry().Stats()
	if stats.Builds != 1 {
		t.Fatalf("%d builds, want 1 clean rebuild", stats.Builds)
	}
	if stats.Disk.VerifyFails != 1 {
		t.Fatalf("disk stats = %+v, want 1 verify fail", stats.Disk)
	}
	// Write-through replaced the bad container: it verifies again.
	good, err := st2.Get(KeyOf(persistSrc, core.LevelStack).Hash, core.LevelStack)
	if err != nil {
		t.Fatalf("container not replaced after rebuild: %v", err)
	}
	if good.Source != persistSrc {
		t.Fatal("replaced container carries the wrong source")
	}
	if err := svc2.Registry().VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineDeletesContainer: a poison pill's container must not survive
// to wedge the next process's warm start.
func TestQuarantineDeletesContainer(t *testing.T) {
	dir := t.TempDir()
	svc, st := newStoreService(t, dir)
	if _, err := svc.Resolve(sourceReq("persisted", persistSrc, core.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	if entries, _ := st.Usage(); entries != 1 {
		t.Fatalf("%d containers before quarantine", entries)
	}
	if !svc.QuarantineSource(persistSrc, core.LevelStack) {
		t.Fatal("quarantine reported already-quarantined")
	}
	if entries, _ := st.Usage(); entries != 0 {
		t.Fatal("quarantined artifact's container survived on disk")
	}
	// And a warm start on the same registry skips the (now absent) key.
	if n, err := svc.Warmstart(-1); err != nil || n != 0 {
		t.Fatalf("Warmstart = %d, %v", n, err)
	}
}

// TestWarmstart pins the warm-start path: a fresh service preloads the
// persisted working set before serving, and the first requests are pure
// memory hits — zero builds, zero disk reads beyond the preload.
func TestWarmstart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := core.DefaultConfig()

	svc1, _ := newStoreService(t, dir)
	sources := []struct{ name, src string }{
		{"persisted", persistSrc},
		{"second", `program second; var n; begin n := 6; print n * 7 end.`},
	}
	var want [][]int64
	for _, s := range sources {
		rep, err := svc1.Run(ctx, sourceReq(s.name, s.src, cfg), core.WithDTB)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep.Output)
	}

	svc2, _ := newStoreService(t, dir)
	loaded, err := svc2.Warmstart(-1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(sources) {
		t.Fatalf("Warmstart loaded %d, want %d", loaded, len(sources))
	}
	st := svc2.Registry().Stats()
	if st.WarmLoads != int64(len(sources)) || st.Entries != len(sources) {
		t.Fatalf("stats after warm start = %+v", st)
	}
	for i, s := range sources {
		rep, err := svc2.Run(ctx, sourceReq(s.name, s.src, cfg), core.WithDTB)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.Output, want[i]) {
			t.Fatalf("%s: warm output %v, want %v", s.name, rep.Output, want[i])
		}
	}
	st = svc2.Registry().Stats()
	if st.Builds != 0 || st.Misses != 0 || st.Hits != int64(len(sources)) {
		t.Fatalf("warm-started service stats = %+v, want pure memory hits", st)
	}
	if err := svc2.Registry().VerifyAccounting(); err != nil {
		t.Fatal(err)
	}

	// A bounded warm start loads only the hottest entry.
	svc3, _ := newStoreService(t, dir)
	if loaded, err := svc3.Warmstart(1); err != nil || loaded != 1 {
		t.Fatalf("Warmstart(1) = %d, %v", loaded, err)
	}
}

// TestStorelessServiceUnchanged: without a store, the stats report no disk
// activity and the memory-only behaviour is untouched.
func TestStorelessServiceUnchanged(t *testing.T) {
	svc := New(Options{})
	if _, err := svc.Resolve(sourceReq("persisted", persistSrc, core.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	st := svc.Registry().Stats()
	if st.Disk != (store.TierStats{}) || st.DiskEntries != 0 || st.WarmLoads != 0 {
		t.Fatalf("store-less service reports disk activity: %+v", st)
	}
	if n, err := svc.Warmstart(-1); err != nil || n != 0 {
		t.Fatalf("store-less Warmstart = %d, %v", n, err)
	}
}
