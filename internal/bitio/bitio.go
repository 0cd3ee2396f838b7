package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxFieldWidth is the widest single field that can be read or written in one
// call.  64 bits is enough for every representation in this reproduction.
const MaxFieldWidth = 64

// ErrFieldTooWide is returned when a requested field exceeds MaxFieldWidth.
var ErrFieldTooWide = errors.New("bitio: field wider than 64 bits")

// ErrShortBuffer is returned by Reader when a read would run past the end of
// the underlying buffer.
var ErrShortBuffer = errors.New("bitio: read past end of buffer")

// maskOf returns a mask of width low bits.  width must be in [0, 64].
func maskOf(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// Writer accumulates a bit string.  The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total number of bits written
}

// NewWriter returns a Writer with capacity for sizeHint bits pre-allocated.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the accumulated bit string packed into bytes.  The final byte
// is zero-padded on the right.  The returned slice aliases the writer's
// internal buffer; callers that keep it across further writes must copy it.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset discards all written bits, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// WriteBits appends the width least-significant bits of v, most significant
// first.  Width may be 0 (a no-op).  It panics if width is negative and
// returns ErrFieldTooWide if width exceeds MaxFieldWidth.
func (w *Writer) WriteBits(v uint64, width int) error {
	if width < 0 {
		panic(fmt.Sprintf("bitio: negative field width %d", width))
	}
	if width > MaxFieldWidth {
		return ErrFieldTooWide
	}
	if width == 0 {
		return nil
	}
	v &= maskOf(width)
	pos := w.nbit
	w.nbit += width
	// Appending zero bytes (rather than reslicing spare capacity) keeps bytes
	// recycled by Reset zeroed, which the partial-byte ORs below rely on.
	for need := (w.nbit + 7) >> 3; len(w.buf) < need; {
		w.buf = append(w.buf, 0)
	}
	rem := width
	// Head: fill the partially used byte up to its boundary.
	if off := pos & 7; off != 0 {
		free := 8 - off
		n := min(free, rem)
		chunk := byte(v>>uint(rem-n)) & byte(maskOf(n))
		w.buf[pos>>3] |= chunk << uint(free-n)
		pos += n
		rem -= n
	}
	// Body: whole bytes.
	for rem >= 8 {
		w.buf[pos>>3] = byte(v >> uint(rem-8))
		pos += 8
		rem -= 8
	}
	// Tail: leftover high bits of the last byte.
	if rem > 0 {
		w.buf[pos>>3] |= byte(v&maskOf(rem)) << uint(8-rem)
	}
	return nil
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(bit bool) {
	var v uint64
	if bit {
		v = 1
	}
	// A single bit can never exceed MaxFieldWidth.
	_ = w.WriteBits(v, 1)
}

// Reader consumes a bit string produced by Writer.
type Reader struct {
	buf  []byte
	pos  int // current bit position
	nbit int // total number of valid bits
}

// NewReader returns a Reader over buf containing nbit valid bits.  If nbit is
// negative the whole of buf (len(buf)*8 bits) is readable.
func NewReader(buf []byte, nbit int) *Reader {
	if nbit < 0 || nbit > len(buf)*8 {
		nbit = len(buf) * 8
	}
	return &Reader{buf: buf, nbit: nbit}
}

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// Seek positions the reader at the absolute bit offset pos.
func (r *Reader) Seek(pos int) error {
	if pos < 0 || pos > r.nbit {
		return fmt.Errorf("bitio: seek to %d outside [0,%d]", pos, r.nbit)
	}
	r.pos = pos
	return nil
}

// peekAt gathers a width-bit field starting at absolute bit position pos.
// The caller must have bounds-checked pos+width against nbit.
func (r *Reader) peekAt(pos, width int) uint64 {
	if width == 0 {
		return 0
	}
	first := pos >> 3
	off := pos & 7
	n := off + width // bits spanned from the start of the first byte; <= 71
	buf := r.buf
	if n <= 64 {
		if len(buf)-first >= 8 {
			// Common case: one 64-bit load covers the whole field.
			acc := binary.BigEndian.Uint64(buf[first:])
			return acc << uint(off) >> uint(64-width)
		}
		// Near the end of the buffer: gather just the touched bytes.
		nbytes := (n + 7) >> 3
		var acc uint64
		for _, b := range buf[first : first+nbytes] {
			acc = acc<<8 | uint64(b)
		}
		return acc >> uint(nbytes*8-n) & maskOf(width)
	}
	// The field spans nine bytes (off > 0 and width > 56).  The bounds check
	// guarantees the ninth byte exists.
	acc := binary.BigEndian.Uint64(buf[first:])
	have := 64 - off
	need := width - have
	return (acc&maskOf(have))<<uint(need) | uint64(buf[first+8]>>uint(8-need))
}

// ReadBits reads a width-bit field, most significant bit first.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 {
		panic(fmt.Sprintf("bitio: negative field width %d", width))
	}
	if width > MaxFieldWidth {
		return 0, ErrFieldTooWide
	}
	if r.pos+width > r.nbit {
		return 0, ErrShortBuffer
	}
	v := r.peekAt(r.pos, width)
	r.pos += width
	return v, nil
}

// PeekBits returns the next width bits without advancing the read position.
// It fails with ErrShortBuffer when fewer than width bits remain; decoders
// that may sit near the end of the stream should clamp width to Remaining.
func (r *Reader) PeekBits(width int) (uint64, error) {
	if width < 0 {
		panic(fmt.Sprintf("bitio: negative field width %d", width))
	}
	if width > MaxFieldWidth {
		return 0, ErrFieldTooWide
	}
	if r.pos+width > r.nbit {
		return 0, ErrShortBuffer
	}
	return r.peekAt(r.pos, width), nil
}

// SkipBits advances the read position by width bits (typically bits already
// examined through PeekBits).  Width may exceed MaxFieldWidth.
func (r *Reader) SkipBits(width int) error {
	if width < 0 {
		panic(fmt.Sprintf("bitio: negative field width %d", width))
	}
	if r.pos+width > r.nbit {
		return ErrShortBuffer
	}
	r.pos += width
	return nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// BitString renders the first n bits of buf as a string of '0' and '1'
// characters, for diagnostics and golden tests.
func BitString(buf []byte, n int) string {
	if n > len(buf)*8 {
		n = len(buf) * 8
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		if buf[i/8]&(1<<uint(7-i%8)) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
