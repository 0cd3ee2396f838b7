package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"uhm/internal/core"
	"uhm/internal/dir"
	"uhm/internal/trace"
)

// The container layout, version 2.  All fixed-width integers are
// little-endian; everything inside the payload is varint-coded.
//
//	offset  size  field
//	     0     4  magic "UHMA"
//	     4     4  format version (uint32)
//	     8     4  flags (uint32, reserved, zero)
//	    12     8  payload length in bytes (uint64)
//	    20    32  SHA-256 of the payload
//	    52     …  payload
//
//	payload:
//	    sourceHash [32]      SHA-256 of the source text (the content address)
//	    name       string    artifact name (uvarint length + bytes)
//	    level      string    semantic level, core.ParseLevel syntax
//	    nsections  uvarint
//	    sections   {type uvarint, length uvarint, bytes}…
//
// Sections are written in canonical order — source, DIR, trace — but decoded
// positionally, so order is not load-bearing.  The source and DIR sections
// are mandatory; each type appears at most once.  Encoded degrees and the
// compiled form are not stored: a loading process rebuilds them from the DIR
// program.  Any other format version is refused with ErrVersion, and the
// registry rebuilds that artifact from source.
const (
	containerMagic = "UHMA"
	FormatVersion  = 2
	headerBytes    = 4 + 4 + 4 + 8 + sha256.Size
	secSource      = 1
	secDIR         = 2
	secTrace       = 3
)

// The typed decode failures.  Every malformed container resolves to exactly
// one of these (possibly wrapped with positional detail); the decoder never
// panics and never returns a partial artifact.
var (
	// ErrBadMagic: the bytes are not a UHM artifact container at all.
	ErrBadMagic = errors.New("store: bad magic (not a UHM artifact container)")
	// ErrVersion: the container was written by a format version this build
	// does not read — a future one, or version 1.
	ErrVersion = errors.New("store: unsupported container version")
	// ErrTruncated: the container ends before its declared structure does.
	ErrTruncated = errors.New("store: truncated container")
	// ErrHashMismatch: the payload (or the source text) does not match its
	// recorded SHA-256 — bit rot, torn write, or tampering.
	ErrHashMismatch = errors.New("store: content hash mismatch")
	// ErrCorrupt: the payload hashes correctly but is structurally malformed
	// (a writer bug or a hand-crafted file).
	ErrCorrupt = errors.New("store: malformed container")
)

// Image is a decoded container: the artifact snapshot ready to rehydrate,
// plus the source text it was built from and that text's content address.
type Image struct {
	Source     string
	SourceHash [sha256.Size]byte
	Snap       *core.Snapshot
}

// Name returns the artifact's name.
func (img *Image) Name() string { return img.Snap.Name }

// Level returns the artifact's semantic level.
func (img *Image) Level() core.Level { return img.Snap.Level }

// Artifact rehydrates the image into a runnable core.Artifact.
func (img *Image) Artifact() (*core.Artifact, error) {
	return core.Rehydrate(img.Snap, img.Source)
}

// cwriter accumulates the varint-coded payload.
type cwriter struct{ buf []byte }

func (w *cwriter) u(v uint64)   { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *cwriter) i(v int64)    { w.buf = binary.AppendVarint(w.buf, v) }
func (w *cwriter) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *cwriter) str(s string) { w.u(uint64(len(s))); w.buf = append(w.buf, s...) }

// creader walks a payload with bounds-checked reads; every failure is a
// typed error carrying the offset.
type creader struct {
	buf []byte
	off int
}

func (r *creader) remaining() int { return len(r.buf) - r.off }

func (r *creader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, r.off, r.remaining())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *creader) u() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, r.off)
	}
	r.off += n
	return v, nil
}

func (r *creader) i() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrTruncated, r.off)
	}
	r.off += n
	return v, nil
}

// num reads a uvarint that must fit a non-negative int.
func (r *creader) num() (int, error) {
	v, err := r.u()
	if err != nil {
		return 0, err
	}
	if v > 1<<31 {
		return 0, fmt.Errorf("%w: value %d too large at offset %d", ErrCorrupt, v, r.off)
	}
	return int(v), nil
}

// count reads an element count and rejects one that could not possibly fit
// in the remaining bytes (each element needs at least elemMin bytes), so a
// corrupt count can never drive an outsized allocation.
func (r *creader) count(elemMin int) (int, error) {
	n, err := r.num()
	if err != nil {
		return 0, err
	}
	if n*elemMin > r.remaining() {
		return 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes at offset %d", ErrCorrupt, n, r.remaining(), r.off)
	}
	return n, nil
}

func (r *creader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Encode serializes an artifact snapshot and its source text into a
// container.  Encoding is deterministic: the same snapshot and source always
// produce the same bytes, so containers can be compared and deduplicated by
// content.
func Encode(snap *core.Snapshot, src string) ([]byte, error) {
	if snap == nil || snap.DIR == nil {
		return nil, fmt.Errorf("store: encode: snapshot has no DIR program")
	}
	if src == "" {
		return nil, fmt.Errorf("store: encode: empty source text")
	}
	type section struct {
		typ  uint64
		data []byte
	}
	sections := []section{
		{secSource, []byte(src)},
		{secDIR, marshalProgram(snap.DIR)},
	}
	if snap.Trace != nil {
		sections = append(sections, section{secTrace, marshalTrace(snap.Trace)})
	}

	var payload cwriter
	srcHash := sha256.Sum256([]byte(src))
	payload.raw(srcHash[:])
	payload.str(snap.Name)
	payload.str(snap.Level.String())
	payload.u(uint64(len(sections)))
	for _, s := range sections {
		payload.u(s.typ)
		payload.u(uint64(len(s.data)))
		payload.raw(s.data)
	}

	out := make([]byte, 0, headerBytes+len(payload.buf))
	out = append(out, containerMagic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, 0) // flags, reserved
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload.buf)))
	payloadHash := sha256.Sum256(payload.buf)
	out = append(out, payloadHash[:]...)
	out = append(out, payload.buf...)
	return out, nil
}

// Decode parses and verifies one container occupying the whole input.
func Decode(data []byte) (*Image, error) {
	img, n, err := decodeOne(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the container", ErrCorrupt, len(data)-n)
	}
	return img, nil
}

// decodeOne parses and verifies the container at the front of data,
// returning how many bytes it occupied (the substrate for bundles, which are
// plain concatenations of containers).
func decodeOne(data []byte) (*Image, int, error) {
	payload, consumed, err := checkHeader(data)
	if err != nil {
		return nil, 0, err
	}
	img, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return img, consumed, nil
}

// checkHeader validates the fixed header and the payload hash, returning the
// verified payload slice and the container's total size.
func checkHeader(data []byte) (payload []byte, size int, err error) {
	if len(data) < len(containerMagic) {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the magic", ErrTruncated, len(data))
	}
	if string(data[:len(containerMagic)]) != containerMagic {
		return nil, 0, ErrBadMagic
	}
	if len(data) < headerBytes {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), headerBytes)
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != FormatVersion {
		return nil, 0, fmt.Errorf("%w: container version %d, this build reads version %d", ErrVersion, version, FormatVersion)
	}
	if flags := binary.LittleEndian.Uint32(data[8:12]); flags != 0 {
		return nil, 0, fmt.Errorf("%w: reserved flags %#x set", ErrCorrupt, flags)
	}
	payloadLen := binary.LittleEndian.Uint64(data[12:20])
	if payloadLen > uint64(len(data)-headerBytes) {
		return nil, 0, fmt.Errorf("%w: payload declares %d bytes, %d present", ErrTruncated, payloadLen, len(data)-headerBytes)
	}
	payload = data[headerBytes : headerBytes+int(payloadLen)]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[20:20+sha256.Size]) {
		return nil, 0, fmt.Errorf("%w: payload SHA-256 does not match the header", ErrHashMismatch)
	}
	return payload, headerBytes + int(payloadLen), nil
}

// decodePayload parses a hash-verified payload into an Image.
func decodePayload(payload []byte) (*Image, error) {
	r := &creader{buf: payload}
	hash, err := r.take(sha256.Size)
	if err != nil {
		return nil, err
	}
	img := &Image{Snap: &core.Snapshot{}}
	copy(img.SourceHash[:], hash)
	if img.Snap.Name, err = r.str(); err != nil {
		return nil, err
	}
	levelName, err := r.str()
	if err != nil {
		return nil, err
	}
	if img.Snap.Level, err = core.ParseLevel(levelName); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	nsec, err := r.count(2)
	if err != nil {
		return nil, err
	}

	var sections [secTrace + 1][]byte
	for i := 0; i < nsec; i++ {
		typ, err := r.u()
		if err != nil {
			return nil, err
		}
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: zero-length section of type %d", ErrCorrupt, typ)
		}
		data, err := r.take(n)
		if err != nil {
			return nil, err
		}
		if typ == 0 || typ > secTrace {
			return nil, fmt.Errorf("%w: unknown section type %d", ErrCorrupt, typ)
		}
		if sections[typ] != nil {
			return nil, fmt.Errorf("%w: duplicate section of type %d", ErrCorrupt, typ)
		}
		sections[typ] = data
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes of payload after the last section", ErrCorrupt, r.remaining())
	}

	// The source must match the recorded content address, and the DIR
	// program is what the trace's pcs index.
	for _, typ := range []int{secSource, secDIR} {
		if sections[typ] == nil {
			return nil, fmt.Errorf("%w: missing mandatory section type %d", ErrCorrupt, typ)
		}
	}
	img.Source = string(sections[secSource])
	if sum := sha256.Sum256(sections[secSource]); sum != img.SourceHash {
		return nil, fmt.Errorf("%w: source text does not match its recorded content address", ErrHashMismatch)
	}
	if img.Snap.DIR, err = unmarshalProgram(sections[secDIR]); err != nil {
		return nil, err
	}
	if err := img.Snap.DIR.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if sections[secTrace] != nil {
		if img.Snap.Trace, err = unmarshalTrace(sections[secTrace], len(img.Snap.DIR.Instrs)); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// marshalProgram flattens a DIR program.  Everything is non-negative by
// construction (dir.Program.Validate enforces it) except immediates, which
// are varint-coded.
func marshalProgram(p *dir.Program) []byte {
	var w cwriter
	w.str(p.Name)
	w.str(p.Level)
	w.u(uint64(len(p.Procs)))
	for _, proc := range p.Procs {
		w.str(proc.Name)
		w.u(uint64(proc.Entry))
		w.u(uint64(proc.NumParams))
		w.u(uint64(proc.FrameSlots))
		w.u(uint64(proc.Depth))
	}
	w.u(uint64(len(p.Contours)))
	for _, c := range p.Contours {
		w.u(uint64(c.Parent))
		w.u(uint64(len(c.Locals)))
		for _, v := range c.Locals {
			w.u(uint64(v.Addr.Depth))
			w.u(uint64(v.Addr.Offset))
			w.u(uint64(v.Size))
		}
	}
	w.u(uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		w.u(uint64(in.Op))
		w.u(uint64(in.Contour))
		for _, op := range in.Operands {
			w.u(uint64(op.Mode))
			switch op.Mode {
			case dir.ModeImm:
				w.i(op.Imm)
			case dir.ModeVar:
				w.u(uint64(op.Addr.Depth))
				w.u(uint64(op.Addr.Offset))
			}
		}
		if in.Op.HasTarget() {
			w.u(uint64(in.Target))
		}
		if in.Op.IsCall() {
			w.u(uint64(in.Proc))
			w.u(uint64(in.NArgs))
		}
	}
	return w.buf
}

func unmarshalProgram(data []byte) (*dir.Program, error) {
	r := &creader{buf: data}
	p := &dir.Program{}
	var err error
	if p.Name, err = r.str(); err != nil {
		return nil, err
	}
	if p.Level, err = r.str(); err != nil {
		return nil, err
	}
	nprocs, err := r.count(1)
	if err != nil {
		return nil, err
	}
	p.Procs = make([]dir.Proc, nprocs)
	for i := range p.Procs {
		proc := &p.Procs[i]
		if proc.Name, err = r.str(); err != nil {
			return nil, err
		}
		if proc.Entry, err = r.num(); err != nil {
			return nil, err
		}
		if proc.NumParams, err = r.num(); err != nil {
			return nil, err
		}
		if proc.FrameSlots, err = r.num(); err != nil {
			return nil, err
		}
		if proc.Depth, err = r.num(); err != nil {
			return nil, err
		}
	}
	ncontours, err := r.count(1)
	if err != nil {
		return nil, err
	}
	p.Contours = make([]dir.Contour, ncontours)
	for i := range p.Contours {
		c := &p.Contours[i]
		if c.Parent, err = r.num(); err != nil {
			return nil, err
		}
		nlocals, err := r.count(1)
		if err != nil {
			return nil, err
		}
		c.Locals = make([]dir.ContourVar, nlocals)
		for j := range c.Locals {
			v := &c.Locals[j]
			if v.Addr.Depth, err = r.num(); err != nil {
				return nil, err
			}
			if v.Addr.Offset, err = r.num(); err != nil {
				return nil, err
			}
			size, err := r.u()
			if err != nil {
				return nil, err
			}
			if size == 0 || size > 1<<31 {
				return nil, fmt.Errorf("%w: contour variable size %d out of range", ErrCorrupt, size)
			}
			v.Size = int64(size)
		}
	}
	ninstrs, err := r.count(1)
	if err != nil {
		return nil, err
	}
	p.Instrs = make([]dir.Instruction, ninstrs)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		opv, err := r.u()
		if err != nil {
			return nil, err
		}
		in.Op = dir.Opcode(opv)
		if opv >= uint64(dir.NumOpcodes) {
			return nil, fmt.Errorf("%w: instruction %d has invalid opcode %d", ErrCorrupt, i, opv)
		}
		if in.Contour, err = r.num(); err != nil {
			return nil, err
		}
		nops := in.Op.NumOperands()
		if nops > 0 {
			in.Operands = make([]dir.Operand, nops)
		}
		for j := range in.Operands {
			op := &in.Operands[j]
			mv, err := r.u()
			if err != nil {
				return nil, err
			}
			op.Mode = dir.AddrMode(mv)
			if mv >= uint64(dir.NumAddrModes) {
				return nil, fmt.Errorf("%w: instruction %d operand %d has invalid mode %d", ErrCorrupt, i, j, mv)
			}
			switch op.Mode {
			case dir.ModeImm:
				if op.Imm, err = r.i(); err != nil {
					return nil, err
				}
			case dir.ModeVar:
				if op.Addr.Depth, err = r.num(); err != nil {
					return nil, err
				}
				if op.Addr.Offset, err = r.num(); err != nil {
					return nil, err
				}
			}
		}
		if in.Op.HasTarget() {
			if in.Target, err = r.num(); err != nil {
				return nil, err
			}
		}
		if in.Op.IsCall() {
			if in.Proc, err = r.num(); err != nil {
				return nil, err
			}
			if in.NArgs, err = r.num(); err != nil {
				return nil, err
			}
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the DIR program", ErrCorrupt, r.remaining())
	}
	return p, nil
}

// marshalTrace persists the canonical execution trace: the activation-stack
// high-water mark, the priced semantic cost, the compiled backend's
// statistics, the dynamic pc stream (zigzag delta-coded — branches jump
// backwards) and the observable output.
func marshalTrace(t *trace.Trace) []byte {
	var w cwriter
	w.u(uint64(t.PeakDepth))
	w.u(uint64(t.SemanticCycles))
	w.u(uint64(t.Compiled.Instructions))
	w.u(uint64(t.Compiled.SemanticCost))
	w.u(uint64(t.Compiled.Fetches))
	w.u(uint64(len(t.PCs)))
	prev := int64(0)
	for _, pc := range t.PCs {
		w.i(int64(pc) - prev)
		prev = int64(pc)
	}
	w.u(uint64(len(t.Output)))
	for _, v := range t.Output {
		w.i(v)
	}
	return w.buf
}

func unmarshalTrace(data []byte, ninstrs int) (*trace.Trace, error) {
	r := &creader{buf: data}
	t := &trace.Trace{}
	var err error
	if t.PeakDepth, err = r.num(); err != nil {
		return nil, err
	}
	for _, field := range []*int64{&t.SemanticCycles, &t.Compiled.Instructions, &t.Compiled.SemanticCost, &t.Compiled.Fetches} {
		v, err := r.u()
		if err != nil {
			return nil, err
		}
		*field = int64(v)
	}
	npcs, err := r.count(1)
	if err != nil {
		return nil, err
	}
	t.PCs = make([]int32, npcs)
	prev := int64(0)
	for i := range t.PCs {
		d, err := r.i()
		if err != nil {
			return nil, err
		}
		prev += d
		if prev < 0 || prev >= int64(ninstrs) {
			return nil, fmt.Errorf("%w: trace pc %d out of range at step %d", ErrCorrupt, prev, i)
		}
		t.PCs[i] = int32(prev)
	}
	nout, err := r.count(1)
	if err != nil {
		return nil, err
	}
	t.Output = make([]int64, nout)
	for i := range t.Output {
		if t.Output[i], err = r.i(); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the trace section", ErrCorrupt, r.remaining())
	}
	return t, nil
}

// SplitBundle splits a bundle — a plain concatenation of containers, the
// uhmart export format — into per-container byte slices.  Each slice still
// needs Decode for verification; SplitBundle only walks the headers.
func SplitBundle(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		_, size, err := checkHeader(data)
		if err != nil {
			return nil, fmt.Errorf("bundle container %d: %w", len(out), err)
		}
		out = append(out, data[:size])
		data = data[size:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty bundle", ErrTruncated)
	}
	return out, nil
}
