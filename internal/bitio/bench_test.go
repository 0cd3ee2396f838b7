package bitio

import (
	"math/rand"
	"testing"
)

// Benchmarks of the bit-level substrate itself: the word-at-a-time fast
// paths against the retained bit-at-a-time reference, over a representative
// field-width mix (DIR fields are 1–30 bits with occasional 64-bit spans).

func benchWidths() []int {
	rng := rand.New(rand.NewSource(42))
	widths := make([]int, 1024)
	for i := range widths {
		switch rng.Intn(10) {
		case 0:
			widths[i] = 33 + rng.Intn(32) // wide field spanning many bytes
		case 1, 2:
			widths[i] = 9 + rng.Intn(24)
		default:
			widths[i] = 1 + rng.Intn(8) // narrow packed field
		}
	}
	return widths
}

func BenchmarkWriteBits(b *testing.B) {
	widths := benchWidths()
	b.Run("word", func(b *testing.B) {
		w := NewWriter(1 << 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				w.Reset()
			}
			_ = w.WriteBits(0xdeadbeefcafebabe, widths[i%1024])
		}
	})
	b.Run("reference", func(b *testing.B) {
		w := &refWriter{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				w.buf, w.nbit = w.buf[:0], 0
			}
			_ = w.WriteBits(0xdeadbeefcafebabe, widths[i%1024])
		}
	})
}

func BenchmarkReadBits(b *testing.B) {
	widths := benchWidths()
	w := NewWriter(1 << 16)
	total := 0
	for _, width := range widths {
		_ = w.WriteBits(0xdeadbeefcafebabe, width)
		total += width
	}
	b.Run("word", func(b *testing.B) {
		r := NewReader(w.Bytes(), w.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				_ = r.Seek(0)
			}
			if _, err := r.ReadBits(widths[i%1024]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		r := newRefReader(w.Bytes(), w.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				_ = r.Seek(0)
			}
			if _, err := r.ReadBits(widths[i%1024]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
