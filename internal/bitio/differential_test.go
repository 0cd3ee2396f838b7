package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// The tests in this file hold the word-at-a-time fast paths to the retained
// bit-at-a-time reference implementation (reference_test.go): same writes must
// produce the same bytes, same reads must produce the same values, errors and
// stream positions — over random widths, values, alignments and bit offsets.

// TestDifferentialWriter drives Writer and refWriter through identical random
// operation sequences and compares the accumulated bit strings.
func TestDifferentialWriter(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter(0)
		ref := &refWriter{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0: // random field
				width := rng.Intn(65)
				v := rng.Uint64()
				gotErr := w.WriteBits(v, width)
				wantErr := ref.WriteBits(v, width)
				if gotErr != wantErr {
					t.Fatalf("seed %d op %d: WriteBits err %v want %v", seed, op, gotErr, wantErr)
				}
			case 1: // single bit
				bit := rng.Intn(2) == 1
				w.WriteBit(bit)
				ref.WriteBit(bit)
			case 2: // unary, occasionally longer than a word
				n := rng.Intn(10)
				if rng.Intn(10) == 0 {
					n = 60 + rng.Intn(80)
				}
				_ = w.WriteUnary(n)
				_ = ref.WriteUnary(n)
			case 3: // align to a random unit
				unit := 1 + rng.Intn(70)
				w.Align(unit)
				ref.Align(unit)
			case 4: // over-wide field must fail identically and write nothing
				if err := w.WriteBits(0, 65); err != ErrFieldTooWide {
					t.Fatalf("seed %d op %d: wide write err %v", seed, op, err)
				}
				if err := ref.WriteBits(0, 65); err != ErrFieldTooWide {
					t.Fatalf("seed %d op %d: wide ref write err %v", seed, op, err)
				}
			}
			if w.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len %d want %d", seed, op, w.Len(), ref.Len())
			}
		}
		if !bytes.Equal(w.Bytes(), ref.Bytes()) {
			t.Fatalf("seed %d: bytes diverge\n fast %s\n  ref %s",
				seed, BitString(w.Bytes(), w.Len()), BitString(ref.Bytes(), ref.Len()))
		}
	}
}

// TestDifferentialReader drives Reader and refReader over the same random bit
// strings with identical operation sequences, comparing values, errors and
// positions after every step — including operations that run off the end of
// the buffer.
func TestDifferentialReader(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		buf := make([]byte, 1+rng.Intn(40))
		rng.Read(buf)
		nbit := rng.Intn(len(buf)*8 + 1)
		r := NewReader(buf, nbit)
		ref := newRefReader(buf, nbit)
		for op := 0; op < 400; op++ {
			switch rng.Intn(6) {
			case 0:
				width := rng.Intn(66) // may exceed MaxFieldWidth
				got, gotErr := r.ReadBits(width)
				want, wantErr := ref.ReadBits(width)
				if got != want || gotErr != wantErr {
					t.Fatalf("seed %d op %d: ReadBits(%d) = %#x,%v want %#x,%v",
						seed, op, width, got, gotErr, want, wantErr)
				}
			case 1:
				got, gotErr := r.ReadBit()
				want, wantErr := ref.ReadBit()
				if got != want || gotErr != wantErr {
					t.Fatalf("seed %d op %d: ReadBit = %v,%v want %v,%v", seed, op, got, gotErr, want, wantErr)
				}
			case 2:
				got, gotErr := r.ReadUnary()
				want, wantErr := ref.ReadUnary()
				if got != want || gotErr != wantErr {
					t.Fatalf("seed %d op %d: ReadUnary = %d,%v want %d,%v", seed, op, got, gotErr, want, wantErr)
				}
			case 3:
				unit := 1 + rng.Intn(70)
				gotErr := r.Align(unit)
				wantErr := ref.Align(unit)
				if gotErr != wantErr {
					t.Fatalf("seed %d op %d: Align(%d) = %v want %v", seed, op, unit, gotErr, wantErr)
				}
			case 4:
				pos := rng.Intn(nbit + 1)
				if err := r.Seek(pos); err != nil {
					t.Fatalf("seed %d op %d: Seek(%d): %v", seed, op, pos, err)
				}
				if err := ref.Seek(pos); err != nil {
					t.Fatalf("seed %d op %d: ref Seek(%d): %v", seed, op, pos, err)
				}
			case 5:
				// PeekBits then SkipBits must equal ReadBits on the reference.
				width := rng.Intn(65)
				got, gotErr := r.PeekBits(width)
				want, wantErr := ref.ReadBits(width)
				if got != want || gotErr != wantErr {
					t.Fatalf("seed %d op %d: PeekBits(%d) = %#x,%v want %#x,%v",
						seed, op, width, got, gotErr, want, wantErr)
				}
				if gotErr == nil {
					if err := r.SkipBits(width); err != nil {
						t.Fatalf("seed %d op %d: SkipBits(%d): %v", seed, op, width, err)
					}
				}
			}
			if r.Pos() != ref.Pos() || r.Remaining() != ref.Remaining() {
				t.Fatalf("seed %d op %d: pos %d/%d want %d/%d",
					seed, op, r.Pos(), r.Remaining(), ref.Pos(), ref.Remaining())
			}
		}
	}
}

// FuzzReadBitsDifferential fuzzes single field reads at arbitrary bit offsets
// against the reference implementation.
func FuzzReadBitsDifferential(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, 3, 13)
	f.Add([]byte{0xff}, 0, 8)
	f.Add(bytes.Repeat([]byte{0xa5}, 16), 7, 64)
	f.Add([]byte{}, 0, 1)
	f.Add(bytes.Repeat([]byte{0x0f}, 9), 1, 64)
	f.Fuzz(func(t *testing.T, buf []byte, pos, width int) {
		if width < 0 || width > 80 || pos < 0 {
			t.Skip()
		}
		r := NewReader(buf, -1)
		ref := newRefReader(buf, -1)
		if r.Seek(pos) != nil {
			t.Skip()
		}
		_ = ref.Seek(pos)
		got, gotErr := r.ReadBits(width)
		want, wantErr := ref.ReadBits(width)
		if got != want || gotErr != wantErr {
			t.Fatalf("ReadBits(%d) at %d = %#x,%v want %#x,%v", width, pos, got, gotErr, want, wantErr)
		}
		if r.Pos() != ref.Pos() {
			t.Fatalf("pos after read = %d want %d", r.Pos(), ref.Pos())
		}
	})
}

// FuzzWriteBitsDifferential fuzzes field writes at arbitrary starting
// alignments against the reference implementation.
func FuzzWriteBitsDifferential(f *testing.F) {
	f.Add(uint64(0xdeadbeef), 17, 5)
	f.Add(^uint64(0), 64, 3)
	f.Add(uint64(1), 1, 0)
	f.Fuzz(func(t *testing.T, v uint64, width, lead int) {
		if width < 0 || width > 64 || lead < 0 || lead > 64 {
			t.Skip()
		}
		w := NewWriter(0)
		ref := &refWriter{}
		// Start at an arbitrary bit alignment.
		_ = w.WriteBits(0x55555555, lead)
		_ = ref.WriteBits(0x55555555, lead)
		if err := w.WriteBits(v, width); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteBits(v, width); err != nil {
			t.Fatal(err)
		}
		if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
			t.Fatalf("write %#x/%d at %d: fast %s ref %s",
				v, width, lead, BitString(w.Bytes(), w.Len()), BitString(ref.Bytes(), ref.Len()))
		}
		// Round-trip through the fast reader.
		r := NewReader(w.Bytes(), w.Len())
		if err := r.Seek(lead); err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadBits(width)
		if err != nil {
			t.Fatal(err)
		}
		want := v
		if width < 64 {
			want &= 1<<uint(width) - 1
		}
		if got != want {
			t.Fatalf("round trip %#x/%d at %d: got %#x", v, width, lead, got)
		}
	})
}
