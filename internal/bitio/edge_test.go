package bitio

import (
	"errors"
	"testing"
)

// Edge cases called out for the word-at-a-time rewrite: maximal fields that
// span byte and word boundaries, mid-byte seeks, and reads that end exactly
// at the buffer boundary.

func TestWriteRead64BitFieldSpanningBytes(t *testing.T) {
	for lead := 0; lead <= 16; lead++ {
		w := NewWriter(0)
		if err := w.WriteBits(0x2aaa, lead); err != nil { // arbitrary leading bits
			t.Fatal(err)
		}
		const v = uint64(0xfedcba9876543210)
		if err := w.WriteBits(v, 64); err != nil {
			t.Fatalf("lead %d: %v", lead, err)
		}
		const tail = uint64(0x5)
		if err := w.WriteBits(tail, 3); err != nil {
			t.Fatal(err)
		}
		r := NewReader(w.Bytes(), w.Len())
		if _, err := r.ReadBits(lead); err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadBits(64)
		if err != nil {
			t.Fatalf("lead %d: read 64: %v", lead, err)
		}
		if got != v {
			t.Fatalf("lead %d: 64-bit field = %#x, want %#x", lead, got, v)
		}
		gotTail, err := r.ReadBits(3)
		if err != nil || gotTail != tail {
			t.Fatalf("lead %d: tail = %#x,%v want %#x", lead, gotTail, err, tail)
		}
		if r.Remaining() != 0 {
			t.Fatalf("lead %d: %d bits left over", lead, r.Remaining())
		}
	}
}

func TestSeekMidByteThenRead(t *testing.T) {
	w := NewWriter(0)
	// 24 bits: 1010 1010 1100 1100 1111 0000
	_ = w.WriteBits(0xAACCF0, 24)
	r := NewReader(w.Bytes(), w.Len())
	for _, tc := range []struct {
		pos, width int
		want       uint64
	}{
		{3, 5, 0x0A},    // 01010
		{7, 9, 0x0CC},   // 0 1100 1100
		{1, 12, 0x559},  // 0101 0101 1001
		{13, 11, 0x4F0}, // 100 1111 0000
		{23, 1, 0x0},    // final bit
		{0, 24, 0xAACCF0},
	} {
		if err := r.Seek(tc.pos); err != nil {
			t.Fatalf("seek %d: %v", tc.pos, err)
		}
		got, err := r.ReadBits(tc.width)
		if err != nil {
			t.Fatalf("read %d@%d: %v", tc.width, tc.pos, err)
		}
		if got != tc.want {
			t.Errorf("read %d@%d = %#x, want %#x", tc.width, tc.pos, got, tc.want)
		}
		if r.Pos() != tc.pos+tc.width {
			t.Errorf("pos after read %d@%d = %d", tc.width, tc.pos, r.Pos())
		}
	}
}

func TestErrShortBufferExactBoundary(t *testing.T) {
	w := NewWriter(0)
	_ = w.WriteBits(0x3FF, 10)
	r := NewReader(w.Bytes(), w.Len()) // 10 valid bits in 2 bytes

	// Reading exactly to the boundary succeeds.
	if _, err := r.ReadBits(10); err != nil {
		t.Fatalf("read to boundary: %v", err)
	}
	// One more bit fails without moving the position.
	if _, err := r.ReadBits(1); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("read past boundary err = %v", err)
	}
	if r.Pos() != 10 {
		t.Fatalf("failed read moved pos to %d", r.Pos())
	}
	// A width that would fit the byte buffer but not the valid-bit count
	// fails too: the padding bits of the final byte are not readable.
	_ = r.Seek(8)
	if _, err := r.ReadBits(3); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("read into padding err = %v", err)
	}
	if got, err := r.ReadBits(2); err != nil || got != 0x3 {
		t.Fatalf("boundary re-read = %#x,%v", got, err)
	}
	// Peek and Skip respect the same boundary.
	_ = r.Seek(9)
	if _, err := r.PeekBits(2); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("peek past boundary err = %v", err)
	}
	if err := r.SkipBits(2); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("skip past boundary err = %v", err)
	}
	if err := r.SkipBits(1); err != nil {
		t.Fatalf("skip to boundary: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestPeekDoesNotAdvance(t *testing.T) {
	w := NewWriter(0)
	_ = w.WriteBits(0xCAFEBABE, 32)
	r := NewReader(w.Bytes(), w.Len())
	_ = r.Seek(4)
	v1, err := r.PeekBits(16)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.PeekBits(16)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || r.Pos() != 4 {
		t.Fatalf("peek advanced: %#x vs %#x at %d", v1, v2, r.Pos())
	}
	got, err := r.ReadBits(16)
	if err != nil || got != v1 {
		t.Fatalf("read after peek = %#x,%v want %#x", got, err, v1)
	}
}
