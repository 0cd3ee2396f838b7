package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleField(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {0xFF, 8}, {0x1234, 16},
		{0xDEADBEEF, 32}, {0xFFFFFFFFFFFFFFFF, 64}, {0, 0}, {7, 5},
	}
	for _, c := range cases {
		w := NewWriter(64)
		if err := w.WriteBits(c.v, c.width); err != nil {
			t.Fatalf("WriteBits(%x,%d): %v", c.v, c.width, err)
		}
		if w.Len() != c.width {
			t.Errorf("Len() = %d, want %d", w.Len(), c.width)
		}
		r := NewReader(w.Bytes(), w.Len())
		got, err := r.ReadBits(c.width)
		if err != nil {
			t.Fatalf("ReadBits(%d): %v", c.width, err)
		}
		want := c.v
		if c.width < 64 {
			want &= (1 << uint(c.width)) - 1
		}
		if got != want {
			t.Errorf("round trip %x width %d: got %x", c.v, c.width, got)
		}
	}
}

func TestFieldsSpanByteBoundaries(t *testing.T) {
	w := NewWriter(0)
	// 3 + 7 + 11 + 13 = 34 bits: every field straddles a byte boundary.
	fields := []struct {
		v     uint64
		width int
	}{{5, 3}, {0x55, 7}, {0x5A5, 11}, {0x1FFF, 13}}
	for _, f := range fields {
		if err := w.WriteBits(f.v, f.width); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 34 {
		t.Fatalf("total bits = %d, want 34", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, f := range fields {
		got, err := r.ReadBits(f.width)
		if err != nil {
			t.Fatal(err)
		}
		if got != f.v {
			t.Errorf("field width %d: got %x want %x", f.width, got, f.v)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", r.Remaining())
	}
}

func TestWriteBitsMasksValue(t *testing.T) {
	w := NewWriter(8)
	if err := w.WriteBits(0xFF, 4); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes(), w.Len())
	got, _ := r.ReadBits(4)
	if got != 0xF {
		t.Errorf("got %x, want 0xF", got)
	}
}

func TestFieldTooWide(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteBits(0, 65); err != ErrFieldTooWide {
		t.Errorf("WriteBits width 65: err = %v, want ErrFieldTooWide", err)
	}
	r := NewReader(make([]byte, 16), -1)
	if _, err := r.ReadBits(65); err != ErrFieldTooWide {
		t.Errorf("ReadBits width 65: err = %v, want ErrFieldTooWide", err)
	}
}

func TestShortBuffer(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteBits(0x3, 2); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBits(3); err != ErrShortBuffer {
		t.Errorf("err = %v, want ErrShortBuffer", err)
	}
}

func TestNegativeWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative width")
		}
	}()
	w := NewWriter(0)
	_ = w.WriteBits(0, -1)
}

func TestSeek(t *testing.T) {
	w := NewWriter(0)
	_ = w.WriteBits(0xA, 4)
	_ = w.WriteBits(0xB, 4)
	r := NewReader(w.Bytes(), w.Len())
	if err := r.Seek(4); err != nil {
		t.Fatal(err)
	}
	v, _ := r.ReadBits(4)
	if v != 0xB {
		t.Errorf("after seek got %x, want 0xB", v)
	}
	if err := r.Seek(99); err == nil {
		t.Error("Seek(99) should fail")
	}
	if err := r.Seek(-1); err == nil {
		t.Error("Seek(-1) should fail")
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(0)
	_ = w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	_ = w.WriteBits(0x3, 2)
	r := NewReader(w.Bytes(), w.Len())
	v, _ := r.ReadBits(2)
	if v != 3 {
		t.Errorf("after reset got %x, want 3", v)
	}
}

func TestBitString(t *testing.T) {
	w := NewWriter(0)
	_ = w.WriteBits(0b1011, 4)
	_ = w.WriteBits(0b001, 3)
	got := BitString(w.Bytes(), w.Len())
	if got != "1011001" {
		t.Errorf("BitString = %q, want %q", got, "1011001")
	}
	if s := BitString([]byte{0xF0}, 99); s != "11110000" {
		t.Errorf("BitString clamp = %q", s)
	}
}

// Property: any sequence of (value,width) fields round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		type field struct {
			v     uint64
			width int
		}
		fields := make([]field, count)
		w := NewWriter(0)
		for i := range fields {
			width := rng.Intn(64) + 1
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << uint(width)) - 1
			}
			fields[i] = field{v, width}
			if err := w.WriteBits(v, width); err != nil {
				return false
			}
		}
		r := NewReader(w.Bytes(), w.Len())
		for _, f := range fields {
			got, err := r.ReadBits(f.width)
			if err != nil || got != f.v {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total bit length equals the sum of written widths.
func TestQuickLengthAdds(t *testing.T) {
	f := func(widths []uint8) bool {
		w := NewWriter(0)
		total := 0
		for _, wd := range widths {
			width := int(wd % 65)
			if err := w.WriteBits(0, width); err != nil {
				return false
			}
			total += width
		}
		return w.Len() == total && len(w.Bytes()) == (total+7)/8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<20 {
			w.Reset()
		}
		_ = w.WriteBits(uint64(i), 13)
	}
}

func BenchmarkReaderReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 4096; i++ {
		_ = w.WriteBits(uint64(i), 13)
	}
	r := NewReader(w.Bytes(), w.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 13 {
			_ = r.Seek(0)
		}
		_, _ = r.ReadBits(13)
	}
}
