package bitio

// This file retains the original bit-at-a-time reader and writer verbatim.
// They are the behavioural specification of the package: the word-at-a-time
// fast paths in bitio.go must match them bit for bit, including error values
// and the position at which a failing operation leaves the stream.  The
// differential and fuzz tests in this package drive both implementations over
// the same operation sequences and compare every observable.  Living in a
// test file keeps the oracle out of the production build.

// refWriter is the bit-at-a-time Writer.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) Len() int      { return w.nbit }
func (w *refWriter) Bytes() []byte { return w.buf }

func (w *refWriter) WriteBits(v uint64, width int) error {
	if width < 0 {
		panic("bitio: negative field width")
	}
	if width > MaxFieldWidth {
		return ErrFieldTooWide
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	for i := width - 1; i >= 0; i-- {
		bit := byte((v >> uint(i)) & 1)
		byteIdx := w.nbit / 8
		if byteIdx == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if bit != 0 {
			w.buf[byteIdx] |= 1 << uint(7-w.nbit%8)
		}
		w.nbit++
	}
	return nil
}

func (w *refWriter) WriteBit(bit bool) {
	var v uint64
	if bit {
		v = 1
	}
	_ = w.WriteBits(v, 1)
}

func (w *refWriter) WriteUnary(n int) error {
	if n < 0 {
		panic("bitio: negative unary value")
	}
	for i := 0; i < n; i++ {
		w.WriteBit(true)
	}
	w.WriteBit(false)
	return nil
}

func (w *refWriter) Align(unit int) {
	if unit <= 0 {
		panic("bitio: non-positive alignment unit")
	}
	for w.nbit%unit != 0 {
		w.WriteBit(false)
	}
}

// refReader is the bit-at-a-time Reader.
type refReader struct {
	buf  []byte
	pos  int
	nbit int
}

func newRefReader(buf []byte, nbit int) *refReader {
	if nbit < 0 || nbit > len(buf)*8 {
		nbit = len(buf) * 8
	}
	return &refReader{buf: buf, nbit: nbit}
}

func (r *refReader) Pos() int       { return r.pos }
func (r *refReader) Remaining() int { return r.nbit - r.pos }

func (r *refReader) Seek(pos int) error {
	if pos < 0 || pos > r.nbit {
		return ErrShortBuffer
	}
	r.pos = pos
	return nil
}

func (r *refReader) ReadBits(width int) (uint64, error) {
	if width < 0 {
		panic("bitio: negative field width")
	}
	if width > MaxFieldWidth {
		return 0, ErrFieldTooWide
	}
	if r.pos+width > r.nbit {
		return 0, ErrShortBuffer
	}
	var v uint64
	for i := 0; i < width; i++ {
		byteIdx := r.pos / 8
		bit := (r.buf[byteIdx] >> uint(7-r.pos%8)) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

func (r *refReader) ReadBit() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

func (r *refReader) ReadUnary() (int, error) {
	n := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if !b {
			return n, nil
		}
		n++
	}
}

func (r *refReader) Align(unit int) error {
	if unit <= 0 {
		panic("bitio: non-positive alignment unit")
	}
	for r.pos%unit != 0 {
		if _, err := r.ReadBit(); err != nil {
			return err
		}
	}
	return nil
}
