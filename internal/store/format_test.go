package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"uhm/internal/core"
)

// testSrc is a small MiniLang program with a loop and arithmetic — quick to
// build, quick to run, non-trivial to encode.
const testSrc = `
program persist;
var i, sum;
begin
  i := 1;
  sum := 0;
  while i <= 10 do
  begin
    sum := sum + i * i;
    i := i + 1
  end;
  print sum
end.`

// enrichedArtifact builds testSrc and records its canonical trace, the one
// persistable form beyond the DIR program.
func enrichedArtifact(t testing.TB, level core.Level) *core.Artifact {
	t.Helper()
	art, err := core.BuildSource("persist", testSrc, level)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := art.Predecoded(core.DefaultConfig().Degree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Trace(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return art
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	art := enrichedArtifact(t, core.LevelStack)
	snap := art.Snapshot()
	if snap.Trace == nil {
		t.Fatal("snapshot missing the recorded trace")
	}

	data, err := Encode(snap, testSrc)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Name() != "persist" || img.Level() != core.LevelStack || img.Source != testSrc {
		t.Fatalf("decoded identity = %q/%v, source %d bytes", img.Name(), img.Level(), len(img.Source))
	}
	if img.SourceHash != sha256.Sum256([]byte(testSrc)) {
		t.Fatal("decoded source hash differs")
	}
	gt, wt := img.Snap.Trace, snap.Trace
	if gt == nil {
		t.Fatal("trace did not round-trip")
	}
	if !slices.Equal(gt.PCs, wt.PCs) || !slices.Equal(gt.Output, wt.Output) ||
		gt.PeakDepth != wt.PeakDepth || gt.SemanticCycles != wt.SemanticCycles ||
		gt.Compiled != wt.Compiled {
		t.Fatal("trace fields do not round-trip")
	}

	if _, err := img.Artifact(); err != nil {
		t.Fatalf("rehydrate: %v", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	art := enrichedArtifact(t, core.LevelMem2)
	snap := art.Snapshot()
	a, err := Encode(snap, testSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(snap, testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

// repack wraps a payload in a fresh, correctly hashed header, so tests can
// hand-craft malformed payloads that still pass the hash gate and reach the
// section parser.
func repack(payload []byte) []byte {
	out := make([]byte, 0, headerBytes+len(payload))
	out = append(out, containerMagic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// craftPayload assembles a payload from explicit sections, with the recorded
// source hash defaulting to the true hash of src.
func craftPayload(src, name, level string, sections []struct {
	typ  uint64
	data []byte
}) []byte {
	var w cwriter
	h := sha256.Sum256([]byte(src))
	w.raw(h[:])
	w.str(name)
	w.str(level)
	w.u(uint64(len(sections)))
	for _, s := range sections {
		w.u(s.typ)
		w.u(uint64(len(s.data)))
		w.raw(s.data)
	}
	return w.buf
}

func TestDecodeTypedErrors(t *testing.T) {
	art := enrichedArtifact(t, core.LevelStack)
	valid, err := Encode(art.Snapshot(), testSrc)
	if err != nil {
		t.Fatal(err)
	}
	dirSec := marshalProgram(art.DIR)
	type sec = struct {
		typ  uint64
		data []byte
	}
	goodSecs := []sec{{secSource, []byte(testSrc)}, {secDIR, dirSec}}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"shorter than magic", valid[:2], ErrTruncated},
		{"wrong magic", append([]byte("NOPE"), valid[4:]...), ErrBadMagic},
		{"truncated header", valid[:headerBytes-4], ErrTruncated},
		{"future version", func() []byte {
			d := slices.Clone(valid)
			binary.LittleEndian.PutUint32(d[4:8], FormatVersion+1)
			return d
		}(), ErrVersion},
		{"version 1", func() []byte {
			d := slices.Clone(valid)
			binary.LittleEndian.PutUint32(d[4:8], 1)
			return d
		}(), ErrVersion},
		{"reserved flags set", func() []byte {
			d := slices.Clone(valid)
			binary.LittleEndian.PutUint32(d[8:12], 0x8000)
			return d
		}(), ErrCorrupt},
		{"payload longer than file", func() []byte {
			d := slices.Clone(valid)
			binary.LittleEndian.PutUint64(d[12:20], uint64(len(valid)))
			return d
		}(), ErrTruncated},
		{"truncated payload", valid[:len(valid)-7], ErrTruncated},
		{"flipped hash byte", func() []byte {
			d := slices.Clone(valid)
			d[20] ^= 0xff
			return d
		}(), ErrHashMismatch},
		{"flipped payload byte", func() []byte {
			d := slices.Clone(valid)
			d[len(d)-1] ^= 0x01
			return d
		}(), ErrHashMismatch},
		{"trailing bytes", append(slices.Clone(valid), 0xaa), ErrCorrupt},
		{"zero-length section", repack(craftPayload(testSrc, "p", "stack",
			append(slices.Clone(goodSecs), sec{secTrace, nil}))), ErrCorrupt},
		{"unknown section type", repack(craftPayload(testSrc, "p", "stack",
			append(slices.Clone(goodSecs), sec{99, []byte{1}}))), ErrCorrupt},
		{"duplicate DIR section", repack(craftPayload(testSrc, "p", "stack",
			append(slices.Clone(goodSecs), sec{secDIR, dirSec}))), ErrCorrupt},
		{"missing DIR section", repack(craftPayload(testSrc, "p", "stack",
			goodSecs[:1])), ErrCorrupt},
		{"missing source section", repack(craftPayload(testSrc, "p", "stack",
			goodSecs[1:])), ErrCorrupt},
		{"bad level name", repack(craftPayload(testSrc, "p", "stack9", goodSecs)), ErrCorrupt},
		{"source does not match recorded hash", repack(craftPayload("program x; begin print 1 end.",
			"p", "stack", goodSecs)), ErrHashMismatch},
		{"corrupt DIR section", repack(craftPayload(testSrc, "p", "stack",
			[]sec{goodSecs[0], {secDIR, []byte{0xff, 0xff, 0xff}}})), ErrTruncated},
		{"section count exceeds payload", repack(func() []byte {
			var w cwriter
			h := sha256.Sum256([]byte(testSrc))
			w.raw(h[:])
			w.str("p")
			w.str("stack")
			w.u(1 << 30)
			return w.buf
		}()), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, err := Decode(tc.data)
			if img != nil {
				t.Fatal("Decode returned a partial image alongside an expected error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode error = %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzDecode hammers the section parser: the harness re-stamps the payload
// length and hash so mutated bytes get past the integrity gate and into the
// structural decoding, which must return a typed error or a whole image —
// never panic, never over-allocate.
func FuzzDecode(f *testing.F) {
	art, err := core.BuildSource("persist", testSrc, core.LevelStack)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := art.Predecoded(core.DefaultConfig().Degree); err != nil {
		f.Fatal(err)
	}
	valid, err := Encode(art.Snapshot(), testSrc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerBytes])
	f.Add([]byte("UHMA junk"))
	f.Add(repack(craftPayload(testSrc, "p", "stack", nil)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if img, err := Decode(data); (img == nil) == (err == nil) {
			t.Fatalf("Decode returned img=%v err=%v", img, err)
		}
		if len(data) < headerBytes {
			return
		}
		stamped := slices.Clone(data)
		copy(stamped[:4], containerMagic)
		binary.LittleEndian.PutUint32(stamped[4:8], FormatVersion)
		binary.LittleEndian.PutUint32(stamped[8:12], 0)
		payload := stamped[headerBytes:]
		binary.LittleEndian.PutUint64(stamped[12:20], uint64(len(payload)))
		sum := sha256.Sum256(payload)
		copy(stamped[20:20+sha256.Size], sum[:])
		img, err := Decode(stamped)
		if (img == nil) == (err == nil) {
			t.Fatalf("Decode(stamped) returned img=%v err=%v", img, err)
		}
		if img != nil {
			// A structurally valid container must rehydrate or fail cleanly.
			img.Artifact()
		}
	})
}

func TestSplitBundle(t *testing.T) {
	a := enrichedArtifact(t, core.LevelStack)
	b := enrichedArtifact(t, core.LevelMem3)
	ca, err := Encode(a.Snapshot(), testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Encode(b.Snapshot(), testSrc)
	if err != nil {
		t.Fatal(err)
	}
	bundle := append(slices.Clone(ca), cb...)
	parts, err := SplitBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || !bytes.Equal(parts[0], ca) || !bytes.Equal(parts[1], cb) {
		t.Fatalf("SplitBundle returned %d parts, want the 2 originals", len(parts))
	}
	for _, p := range parts {
		if _, err := Decode(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := SplitBundle(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty bundle error = %v, want ErrTruncated", err)
	}
	if _, err := SplitBundle(bundle[:len(bundle)-3]); err == nil {
		t.Fatal("truncated bundle split succeeded")
	}
}
