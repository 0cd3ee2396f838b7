package dir

import (
	"errors"
	"fmt"

	"uhm/internal/bitio"
	"uhm/internal/encoding/huffman"
	"uhm/internal/encoding/pairfreq"
)

// Degree is the degree of encoding of a DIR binary — the horizontal axis of
// the paper's Figure 1.
type Degree int

const (
	// DegreePacked packs fixed-width fields, spanning memory-unit boundaries
	// but otherwise unencoded: "the simplest form of encoding".
	DegreePacked Degree = iota
	// DegreeContour gives variable operands the contextual width determined
	// by the number of variables visible in the instruction's contour.
	DegreeContour
	// DegreeHuffman applies frequency-based (canonical Huffman) coding to
	// every field class, with contour-indexed operands.
	DegreeHuffman
	// DegreePair additionally conditions the opcode code on the previous
	// instruction's opcode (pair-frequency encoding), requiring "a separate
	// decode tree for each possible predecessor field".
	DegreePair

	// NumDegrees counts the degrees; a valid Degree indexes an array of
	// this length.
	NumDegrees
)

// Degrees lists all encoding degrees in increasing order of encoding effort.
func Degrees() []Degree {
	return []Degree{DegreePacked, DegreeContour, DegreeHuffman, DegreePair}
}

// String names the degree.
func (d Degree) String() string {
	switch d {
	case DegreePacked:
		return "packed"
	case DegreeContour:
		return "contour"
	case DegreeHuffman:
		return "huffman"
	case DegreePair:
		return "pair"
	default:
		return fmt.Sprintf("degree(%d)", int(d))
	}
}

// Valid reports whether the degree is defined.
func (d Degree) Valid() bool { return d >= 0 && d < NumDegrees }

// field classes used by the codebooks.
type fieldClass int

const (
	fcOpcode fieldClass = iota
	fcMode
	fcDepth
	fcOffset
	fcVisIndex
	fcImm
	fcTarget
	fcProc
	fcNArgs
	fieldClassCount
)

var fieldClassNames = [...]string{
	fcOpcode: "opcode", fcMode: "mode", fcDepth: "depth", fcOffset: "offset",
	fcVisIndex: "visindex", fcImm: "imm", fcTarget: "target", fcProc: "proc", fcNArgs: "nargs",
}

func (f fieldClass) String() string { return fieldClassNames[f] }

// zigzag maps signed values onto unsigned symbols so immediates and branch
// displacements can be frequency coded.
func zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// DecodeCost is the measured cost of decoding one instruction from a binary:
// the paper's parameter d is the average Steps over the executed instruction
// stream.
type DecodeCost struct {
	// Steps counts elementary decode operations: one per fixed-width field
	// extract, one per decode-tree level for frequency-coded fields, plus
	// one per contour-width lookup for contextual fields.
	Steps int
	// BitsRead is the number of bits consumed.
	BitsRead int
}

// Binary is an encoded DIR program: the static representation that lives in
// level-2 memory.
type Binary struct {
	Program *Program
	Degree  Degree

	data    []byte
	bitLen  int
	offsets []int // bit offset of each instruction

	book *codebook

	// Per-contour visibility caches, filled for contextual degrees: the
	// interpreter's contour table, consulted by encoder and decoder instead
	// of re-deriving the visible-variable list on every operand.
	visVars  [][]ContourVar
	visWidth []int

	// contourOf[i] caches Program.ContourOf(i) for every instruction.
	contourOf []int32
}

// codebook holds whatever tables the decoder needs for a given degree.  In a
// real system these tables are part of the interpreter; their size is
// reported by CodebookBits so the "interpreter size" axis of Figure 1 can be
// measured.
type codebook struct {
	degree Degree

	// packedWidths[class] is the fixed field width for DegreePacked (and for
	// the classes DegreeContour leaves fixed).
	packedWidths [fieldClassCount]int

	// huff[class] is the canonical code for frequency-coded degrees.
	huff [fieldClassCount]*huffman.Code

	// opPair is the pair-frequency coder for opcodes at DegreePair.
	opPair *pairfreq.Coder
}

// SizeBits returns the size of the encoded program in bits.
func (b *Binary) SizeBits() int { return b.bitLen }

// SizeBytes returns the size of the encoded program in whole bytes.
func (b *Binary) SizeBytes() int { return (b.bitLen + 7) / 8 }

// Bytes returns the raw encoded bit string (final byte zero padded).
func (b *Binary) Bytes() []byte { return b.data }

// NumInstrs returns the number of encoded instructions.
func (b *Binary) NumInstrs() int { return len(b.offsets) }

// AvgInstrBits returns the average encoded instruction length in bits.
func (b *Binary) AvgInstrBits() float64 {
	if len(b.offsets) == 0 {
		return 0
	}
	return float64(b.bitLen) / float64(len(b.offsets))
}

// InstrBitRange returns the bit offset and bit length of instruction i.
func (b *Binary) InstrBitRange(i int) (offset, length int, err error) {
	if i < 0 || i >= len(b.offsets) {
		return 0, 0, fmt.Errorf("dir: instruction index %d out of range", i)
	}
	start := b.offsets[i]
	end := b.bitLen
	if i+1 < len(b.offsets) {
		end = b.offsets[i+1]
	}
	return start, end - start, nil
}

// CodebookBits estimates the size of the decoder's tables — the amount the
// interpreter grows as the degree of encoding increases (Figure 1's caption:
// "the size of the interpreter and semantic routines increases").
func (b *Binary) CodebookBits() int {
	book := b.book
	bits := 0
	switch book.degree {
	case DegreePacked, DegreeContour:
		// One width register per field class.
		bits += int(fieldClassCount) * 8
		if book.degree == DegreeContour {
			// A width (or bound) per contour.
			bits += len(b.Program.Contours) * 8
		}
	case DegreeHuffman, DegreePair:
		for _, code := range book.huff {
			if code == nil {
				continue
			}
			// Each codebook entry needs roughly symbol + length + codeword.
			bits += code.Size() * (16 + 8 + code.MaxLen())
		}
		if book.opPair != nil {
			// One decode tree per predecessor context, sized like the opcode
			// tree.
			if opCode := book.huff[fcOpcode]; opCode != nil {
				perTree := opCode.Size() * (16 + 8 + opCode.MaxLen())
				bits += (book.opPair.Trees() - 1) * perTree
			}
		}
	}
	return bits
}

// ErrNotVisible is returned when a variable operand is not visible from the
// contour of the instruction that uses it (a compiler bug or a hand-built
// program error).
var ErrNotVisible = errors.New("dir: operand not visible in instruction contour")

// buildVisCaches derives the per-contour visible-variable lists and operand
// field widths once per binary.
func buildVisCaches(p *Program) (vars [][]ContourVar, widths []int) {
	n := len(p.Contours)
	vars = make([][]ContourVar, n)
	widths = make([]int, n)
	for c := 0; c < n; c++ {
		vars[c] = p.VisibleVars(c)
		nv := len(vars[c])
		if nv <= 1 {
			widths[c] = 1
		} else {
			widths[c] = widthFor(uint64(nv - 1))
		}
	}
	return vars, widths
}

// visibleIndex locates addr in the cached visible-variable list of contour c.
func (b *Binary) visibleIndex(c int, addr VarAddr) int {
	for i, v := range b.visVars[c] {
		if v.Addr == addr {
			return i
		}
	}
	return -1
}

// appendInstrFields appends the (class, value) pairs of an instruction in the
// canonical field order shared by every encoder and decoder.  The caller
// provides the slices so a whole-program pass reuses one pair of buffers.
func appendInstrFields(b *Binary, idx int, in Instruction, contextual bool,
	classes []fieldClass, values []uint64) ([]fieldClass, []uint64, error) {
	add := func(c fieldClass, v uint64) {
		classes = append(classes, c)
		values = append(values, v)
	}
	add(fcOpcode, uint64(in.Op))
	for _, op := range in.Operands {
		add(fcMode, uint64(op.Mode))
		switch op.Mode {
		case ModeImm:
			add(fcImm, zigzag(op.Imm))
		case ModeVar:
			if contextual {
				vi := b.visibleIndex(in.Contour, op.Addr)
				if vi < 0 {
					return classes, values, fmt.Errorf("%w: instruction %d operand %v contour %d",
						ErrNotVisible, idx, op.Addr, in.Contour)
				}
				add(fcVisIndex, uint64(vi))
			} else {
				add(fcDepth, uint64(op.Addr.Depth))
				add(fcOffset, uint64(op.Addr.Offset))
			}
		}
	}
	if in.Op.HasTarget() {
		add(fcTarget, zigzag(int64(in.Target-idx)))
	}
	if in.Op.IsCall() {
		add(fcProc, uint64(in.Proc))
		add(fcNArgs, uint64(in.NArgs))
	}
	return classes, values, nil
}

// fieldStream is the whole static program flattened to its field sequence,
// together with the per-class statistics the codebooks are built from.  It is
// produced in one pass and consumed by the write pass, so each instruction's
// fields are enumerated exactly once per Encode.
type fieldStream struct {
	classes []fieldClass
	values  []uint64
	start   []int32 // start[i] is the first field of instruction i; len n+1

	// counts[class] accumulates per-class symbol frequencies densely (one
	// map insertion per distinct symbol at code-build time instead of one
	// per field occurrence).
	counts [fieldClassCount]huffman.Counter
	max    [fieldClassCount]uint64
	ops    []pairfreq.Symbol // opcode stream for pair statistics
}

// collectFields flattens the program's field sequence and accumulates the
// statistics the requested degree actually needs: widths always, frequency
// tables only for the frequency-coded degrees, the opcode stream only for the
// pair degree.
func collectFields(b *Binary, contextual bool) (*fieldStream, error) {
	p := b.Program
	needFreq := b.Degree == DegreeHuffman || b.Degree == DegreePair
	needOps := b.Degree == DegreePair
	st := &fieldStream{
		classes: make([]fieldClass, 0, len(p.Instrs)*4),
		values:  make([]uint64, 0, len(p.Instrs)*4),
		start:   make([]int32, len(p.Instrs)+1),
	}
	if needOps {
		st.ops = make([]pairfreq.Symbol, 0, len(p.Instrs))
	}
	for idx, in := range p.Instrs {
		st.start[idx] = int32(len(st.classes))
		var err error
		st.classes, st.values, err = appendInstrFields(b, idx, in, contextual, st.classes, st.values)
		if err != nil {
			return nil, err
		}
		for i := int(st.start[idx]); i < len(st.classes); i++ {
			c, v := st.classes[i], st.values[i]
			if v > (1 << 31) {
				return nil, fmt.Errorf("dir: field %s value %d too large to encode", c, v)
			}
			if needFreq {
				st.counts[c].Add(huffman.Symbol(v))
			}
			if v > st.max[c] {
				st.max[c] = v
			}
		}
		if needOps {
			st.ops = append(st.ops, pairfreq.Symbol(in.Op))
		}
	}
	st.start[len(p.Instrs)] = int32(len(st.classes))
	return st, nil
}

// widthFor returns the number of bits needed for values in [0, max].
func widthFor(max uint64) int {
	w := 1
	for v := max >> 1; v > 0; v >>= 1 {
		w++
	}
	return w
}

// Encode emits the program at the given encoding degree: it builds the
// visibility caches, the flattened field stream and the codebook with every
// decode table, then writes each instruction's fields.
func Encode(p *Program, degree Degree) (*Binary, error) {
	if !degree.Valid() {
		return nil, fmt.Errorf("dir: invalid encoding degree %d", int(degree))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	contextual := degree != DegreePacked
	bin := &Binary{Program: p, Degree: degree}
	if contextual {
		bin.visVars, bin.visWidth = buildVisCaches(p)
	}
	bin.contourOf = make([]int32, len(p.Instrs))
	for i := range p.Instrs {
		bin.contourOf[i] = int32(p.ContourOf(i))
	}
	stats, err := collectFields(bin, contextual)
	if err != nil {
		return nil, err
	}

	book := &codebook{degree: degree}
	for c := 0; c < int(fieldClassCount); c++ {
		book.packedWidths[c] = widthFor(stats.max[c])
	}
	if degree == DegreeHuffman || degree == DegreePair {
		for c := 0; c < int(fieldClassCount); c++ {
			if stats.counts[c].Empty() {
				continue
			}
			code, err := stats.counts[c].Code()
			if err != nil {
				return nil, fmt.Errorf("dir: building %s code: %w", fieldClass(c), err)
			}
			book.huff[c] = code
		}
	}
	if degree == DegreePair {
		ps := pairfreq.NewStats()
		ps.ObserveAll(stats.ops)
		coder, err := pairfreq.NewCoder(ps, 0)
		if err != nil {
			return nil, fmt.Errorf("dir: building pair-frequency opcode code: %w", err)
		}
		book.opPair = coder
	}
	bin.book = book

	w := bitio.NewWriter(len(p.Instrs) * 32)
	offsets := make([]int, len(p.Instrs))
	var pairEnc *pairfreq.Encoder
	if book.opPair != nil {
		pairEnc = book.opPair.NewEncoder()
	}
	for idx, in := range p.Instrs {
		offsets[idx] = w.Len()
		for i := stats.start[idx]; i < stats.start[idx+1]; i++ {
			c, v := stats.classes[i], stats.values[i]
			if err := encodeField(w, bin, in.Contour, c, v, pairEnc); err != nil {
				return nil, fmt.Errorf("dir: instruction %d field %s: %w", idx, c, err)
			}
		}
	}
	bin.data = append([]byte(nil), w.Bytes()...)
	bin.bitLen = w.Len()
	bin.offsets = offsets
	return bin, nil
}

func encodeField(w *bitio.Writer, bin *Binary, contour int, c fieldClass, v uint64, pairEnc *pairfreq.Encoder) error {
	book := bin.book
	switch book.degree {
	case DegreePacked:
		return w.WriteBits(v, book.packedWidths[c])
	case DegreeContour:
		if c == fcVisIndex {
			return w.WriteBits(v, bin.visWidth[contour])
		}
		return w.WriteBits(v, book.packedWidths[c])
	case DegreeHuffman, DegreePair:
		if c == fcOpcode && book.opPair != nil && pairEnc != nil {
			return pairEnc.Encode(w, pairfreq.Symbol(v))
		}
		code := book.huff[c]
		if code == nil {
			return fmt.Errorf("no code for field class %s", c)
		}
		return code.Encode(w, huffman.Symbol(v))
	default:
		return fmt.Errorf("unknown degree %v", book.degree)
	}
}

// Decoder decodes instructions from a Binary, counting decode steps.  A
// Decoder carries the predecessor state needed by the pair-frequency degree,
// so a fresh Decoder should be used per independent decode stream; the
// sequential Decode method below is the common entry point.  A Decoder
// allocates nothing per decoded instruction beyond the instruction's own
// operand storage.
type Decoder struct {
	bin     *Binary
	r       *bitio.Reader
	pairDec *pairfreq.Decoder // reused across Decode calls at DegreePair
	cost    DecodeCost        // accumulator for the current Decode call
	contour int               // contour of the instruction being decoded

	// arena, when non-nil, provides operand storage for decoded
	// instructions from one contiguous allocation (see SetOperandArena).
	arena []Operand
}

// SetOperandArena hands the decoder a contiguous buffer to carve decoded
// instructions' operand slices from, so a whole-program decode pass (such as
// Binary.Predecode) performs one operand allocation instead of one per
// instruction.  The instructions decoded afterwards alias the arena and share
// its lifetime.
func (d *Decoder) SetOperandArena(capacity int) {
	d.arena = make([]Operand, 0, capacity)
}

// NewDecoder returns a decoder over the binary.
func (b *Binary) NewDecoder() *Decoder {
	d := &Decoder{bin: b, r: bitio.NewReader(b.data, b.bitLen)}
	if b.book.opPair != nil {
		d.pairDec = b.book.opPair.NewDecoder()
	}
	return d
}

// readField decodes one field of the current instruction, charging its
// decode cost.
func (d *Decoder) readField(c fieldClass) (uint64, error) {
	book := d.bin.book
	switch book.degree {
	case DegreePacked:
		v, err := d.r.ReadBits(book.packedWidths[c])
		d.cost.Steps++
		d.cost.BitsRead += book.packedWidths[c]
		return v, err
	case DegreeContour:
		width := book.packedWidths[c]
		if c == fcVisIndex {
			width = d.bin.visWidth[d.contour]
			// One extra step to consult the current contour's width.
			d.cost.Steps++
		}
		v, err := d.r.ReadBits(width)
		d.cost.Steps++
		d.cost.BitsRead += width
		return v, err
	case DegreeHuffman, DegreePair:
		if c == fcOpcode && d.pairDec != nil {
			before := d.r.Pos()
			sym, steps, err := d.pairDec.Decode(d.r)
			d.cost.Steps += steps
			d.cost.BitsRead += d.r.Pos() - before
			return uint64(sym), err
		}
		code := book.huff[c]
		if code == nil {
			return 0, fmt.Errorf("dir: no code for field class %s", c)
		}
		before := d.r.Pos()
		sym, steps, err := code.Decode(d.r)
		d.cost.Steps += steps
		d.cost.BitsRead += d.r.Pos() - before
		return uint64(sym), err
	default:
		return 0, fmt.Errorf("dir: unknown degree %v", book.degree)
	}
}

// Decode decodes instruction i and reports the measured decode cost.  The
// instruction's Contour field is reconstructed from the program's procedure
// table, as a real interpreter would know it from the current block context.
func (d *Decoder) Decode(i int) (Instruction, DecodeCost, error) {
	var in Instruction
	cost, err := d.DecodeInto(&in, i)
	if err != nil {
		return Instruction{}, cost, err
	}
	return in, cost, nil
}

// DecodeInto decodes instruction i directly into *in, sparing whole-program
// passes (Binary.Predecode) an intermediate copy per instruction.  On error
// *in holds a partial decode and must not be used.
func (d *Decoder) DecodeInto(in *Instruction, i int) (DecodeCost, error) {
	d.cost = DecodeCost{}
	start, _, err := d.bin.InstrBitRange(i)
	if err != nil {
		return d.cost, err
	}
	if err := d.r.Seek(start); err != nil {
		return d.cost, err
	}
	d.contour = int(d.bin.contourOf[i])

	// The pair-frequency degree conditions each opcode on its predecessor;
	// decoding instruction i therefore needs the predecessor opcode, which
	// the interpreter knows because it decoded it last time.  Here it is
	// reconstructed from the program (the decode-step cost of that lookup is
	// not charged, matching an interpreter that keeps it in a register).
	if d.pairDec != nil {
		if i > 0 {
			d.pairDec.Prime(pairfreq.Symbol(d.bin.Program.Instrs[i-1].Op))
		} else {
			d.pairDec.Reset()
		}
	}

	opv, err := d.readField(fcOpcode)
	if err != nil {
		return d.cost, err
	}
	*in = Instruction{Op: Opcode(opv), Contour: d.contour}
	if !in.Op.Valid() {
		return d.cost, fmt.Errorf("dir: decoded invalid opcode %d at instruction %d", opv, i)
	}
	contextual := d.bin.book.degree != DegreePacked
	numOps := in.Op.NumOperands()
	if numOps > 0 {
		if base := len(d.arena); cap(d.arena)-base >= numOps {
			// Carve the operand slice out of the arena; the three-index
			// expression caps it at numOps so later carvings cannot overlap.
			in.Operands = d.arena[base : base : base+numOps]
			d.arena = d.arena[:base+numOps]
		} else {
			in.Operands = make([]Operand, 0, numOps)
		}
	}
	for k := 0; k < numOps; k++ {
		mv, err := d.readField(fcMode)
		if err != nil {
			return d.cost, err
		}
		mode := AddrMode(mv)
		if !mode.Valid() {
			return d.cost, fmt.Errorf("dir: decoded invalid mode %d at instruction %d", mv, i)
		}
		var op Operand
		op.Mode = mode
		switch mode {
		case ModeImm:
			v, err := d.readField(fcImm)
			if err != nil {
				return d.cost, err
			}
			op.Imm = unzigzag(v)
		case ModeVar:
			if contextual {
				v, err := d.readField(fcVisIndex)
				if err != nil {
					return d.cost, err
				}
				vis := d.bin.visVars[d.contour]
				if int(v) >= len(vis) {
					return d.cost, fmt.Errorf("dir: visible index %d out of range at instruction %d", v, i)
				}
				op.Addr = vis[v].Addr
			} else {
				dv, err := d.readField(fcDepth)
				if err != nil {
					return d.cost, err
				}
				ov, err := d.readField(fcOffset)
				if err != nil {
					return d.cost, err
				}
				op.Addr = VarAddr{Depth: int(dv), Offset: int(ov)}
			}
		}
		in.Operands = append(in.Operands, op)
	}
	if in.Op.HasTarget() {
		v, err := d.readField(fcTarget)
		if err != nil {
			return d.cost, err
		}
		in.Target = i + int(unzigzag(v))
	}
	if in.Op.IsCall() {
		pv, err := d.readField(fcProc)
		if err != nil {
			return d.cost, err
		}
		nv, err := d.readField(fcNArgs)
		if err != nil {
			return d.cost, err
		}
		in.Proc = int(pv)
		in.NArgs = int(nv)
	}
	return d.cost, nil
}

// ContourOf returns the contour (procedure) index containing instruction i,
// derived from the procedure entry points.  The compiler emits procedure
// bodies contiguously in procedure-index order, so the containing procedure
// is the one with the greatest entry point not exceeding i.
func (p *Program) ContourOf(i int) int {
	best := 0
	bestEntry := -1
	for idx, proc := range p.Procs {
		if proc.Entry <= i && proc.Entry > bestEntry {
			best = idx
			bestEntry = proc.Entry
		}
	}
	return best
}
