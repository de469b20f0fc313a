// Package spill is the out-of-core substrate of the physical engine: it
// writes runs of rows to temporary files and streams them back, so pipeline
// breakers (sort, aggregate, join) can degrade gracefully when a memory
// budget (physical.MemGovernor) says their working set no longer fits.
//
// A run is a sequence of frames. Each frame is
//
//	[4B little-endian payload length][4B CRC32-IEEE of payload][payload]
//
// and a payload is `uvarint rowCount` followed by rowCount rows, each
// `uvarint arity` followed by arity values (a writer may instead fill the
// payload after the count with records of its own layout through
// AppendFrame, read back with Reader.NextFrame). Values are encoded exactly —
// kind byte plus a kind-specific payload — so a round trip preserves kind,
// NaN payload, ±0, and huge ints past 2^53 bit for bit. (The engine's
// canonical grouping key, types.Value.AppendKey, deliberately collapses
// cross-kind numeric equality and therefore cannot round-trip; spilled
// operators store rows with this codec and re-derive their AppendKey-based
// hash keys after read-back, so keying stays byte-identical to the
// in-memory path.)
//
// The CRC makes torn writes and bit rot surface as query errors rather than
// silently wrong answers; a clean EOF is only ever reported at a frame
// boundary. Writers and runs own their temp file and remove it on
// Abort/Remove — callers (the physical operators' spill sets) guarantee
// removal even on early Close or mid-query errors.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/types"
)

// DefaultFrameRows is how many rows a Writer packs per frame before
// flushing: large enough to amortize the frame header and syscall, small
// enough that a reader holds only a modest slab of decoded rows in memory.
const DefaultFrameRows = 1024

// maxFrameBytes bounds a frame header's claimed payload size, so a
// corrupted length field cannot ask the reader for a gigantic allocation.
const maxFrameBytes = 1 << 30

// MaxFrameBufferBytes is the byte threshold at which a writer closes the
// current frame even before DefaultFrameRows rows accumulate, so wide
// string rows cannot grow a frame toward the reader's maxFrameBytes cap
// (a single row can still exceed this — its frame is simply that big).
// Exported because it bounds a writer's resident payload buffer: memory
// governors charge MaxFrameBufferBytes + WriterBufferBytes per open
// writer.
const MaxFrameBufferBytes = 256 << 10

// WriterBufferBytes is the bufio buffer each writer holds while open.
const WriterBufferBytes = 1 << 16

// maxFrameRowCount bounds a payload's claimed row count the same way.
const maxFrameRowCount = 1 << 26

// value kind tags. These mirror types.Kind but are an independent on-disk
// byte so the file format does not silently shift if the in-memory
// enumeration is ever reordered.
const (
	tagNull   = 'N'
	tagBool   = 'B'
	tagInt    = 'I'
	tagFloat  = 'F'
	tagString = 'S'
)

// AppendValue appends the exact binary encoding of v to buf.
func AppendValue(buf []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindNull:
		return append(buf, tagNull)
	case types.KindBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		return append(buf, tagBool, b)
	case types.KindInt:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, v.Int())
	case types.KindFloat:
		buf = append(buf, tagFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case types.KindString:
		s := v.Str()
		buf = append(buf, tagString)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	default:
		// Unreachable for well-formed values; encode as NULL rather than
		// corrupting the frame.
		return append(buf, tagNull)
	}
}

// DecodeValue decodes one value from b, returning it and the remaining
// bytes.
func DecodeValue(b []byte) (types.Value, []byte, error) {
	if len(b) == 0 {
		return types.Value{}, nil, fmt.Errorf("spill: truncated value")
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagNull:
		return types.Null(), b, nil
	case tagBool:
		if len(b) < 1 {
			return types.Value{}, nil, fmt.Errorf("spill: truncated bool")
		}
		return types.NewBool(b[0] != 0), b[1:], nil
	case tagInt:
		v, n := binary.Varint(b)
		if n <= 0 {
			return types.Value{}, nil, fmt.Errorf("spill: bad varint")
		}
		return types.NewInt(v), b[n:], nil
	case tagFloat:
		if len(b) < 8 {
			return types.Value{}, nil, fmt.Errorf("spill: truncated float")
		}
		bits := binary.LittleEndian.Uint64(b)
		return types.NewFloat(math.Float64frombits(bits)), b[8:], nil
	case tagString:
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			return types.Value{}, nil, fmt.Errorf("spill: bad string length")
		}
		b = b[sz:]
		return types.NewString(string(b[:n])), b[n:], nil
	default:
		return types.Value{}, nil, fmt.Errorf("spill: unknown value tag %q", tag)
	}
}

// AppendRow appends the encoding of one row: its arity, then its values.
func AppendRow(buf []byte, row []types.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeRow decodes one freshly allocated row from b, returning the
// remaining bytes. Decoded rows share nothing with the file buffer, so they
// obey the engine-wide row-stability rule.
func DecodeRow(b []byte) ([]types.Value, []byte, error) {
	arity, sz := binary.Uvarint(b)
	if sz <= 0 || arity > uint64(len(b)) {
		return nil, nil, fmt.Errorf("spill: bad row arity")
	}
	b = b[sz:]
	row := make([]types.Value, arity)
	var err error
	for i := range row {
		if row[i], b, err = DecodeValue(b); err != nil {
			return nil, nil, err
		}
	}
	return row, b, nil
}

// Writer accumulates rows into frames and writes them to a temp file.
type Writer struct {
	f         *os.File
	out       io.Writer // buffered; a test seam may interpose failures
	bw        *bufio.Writer
	path      string
	payload   []byte
	rows      int
	frameRows int
	header    [8]byte
	err       error
	done      bool
}

// NewWriter creates a run writer over a fresh temp file in dir (""
// means the system temp dir, so TMPDIR redirects spill traffic).
func NewWriter(dir string) (*Writer, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "uadb-spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("spill: creating run file: %w", err)
	}
	bw := bufio.NewWriterSize(f, WriterBufferBytes)
	return &Writer{f: f, out: bw, bw: bw, path: f.Name(), frameRows: DefaultFrameRows}, nil
}

// Path reports the temp file backing the writer.
func (w *Writer) Path() string { return w.path }

// Append buffers one row, flushing a frame when the buffer is full. The row
// is encoded immediately; the caller may reuse it.
func (w *Writer) Append(row []types.Value) error {
	if w.err != nil {
		return w.err
	}
	w.payload = AppendRow(w.payload, row)
	w.rows++
	if w.rows >= w.frameRows || len(w.payload) >= MaxFrameBufferBytes {
		return w.flushFrame()
	}
	return nil
}

// AppendAll buffers every row of rows.
func (w *Writer) AppendAll(rows [][]types.Value) error {
	for _, row := range rows {
		if err := w.Append(row); err != nil {
			return err
		}
	}
	return nil
}

// AppendFrame writes one frame of n records whose payload the caller has
// already encoded in a layout of its own (the aggregate's typed column
// blocks, for one). Rows buffered by Append are flushed first, so frames
// stay in call order. The payload is copied out; the caller may reuse it.
func (w *Writer) AppendFrame(n int, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if n <= 0 || n > maxFrameRowCount {
		return w.fail(fmt.Errorf("frame record count %d out of range", n))
	}
	if err := w.flushFrame(); err != nil {
		return err
	}
	return w.writeFrame(n, payload)
}

// flushFrame writes the buffered rows as one frame.
func (w *Writer) flushFrame() error {
	if w.rows == 0 {
		return nil
	}
	if err := w.writeFrame(w.rows, w.payload); err != nil {
		return err
	}
	w.payload = w.payload[:0]
	w.rows = 0
	return nil
}

// writeFrame writes one CRC-checked frame of n records. The record count
// is prepended without copying the payload: the CRC runs incrementally
// over the count prefix and the payload, and the two parts are written
// back to back.
func (w *Writer) writeFrame(n int, payload []byte) error {
	var cnt [binary.MaxVarintLen64]byte
	c := binary.PutUvarint(cnt[:], uint64(n))
	crc := crc32.ChecksumIEEE(cnt[:c])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(w.header[0:4], uint32(c+len(payload)))
	binary.LittleEndian.PutUint32(w.header[4:8], crc)
	if _, err := w.out.Write(w.header[:]); err != nil {
		return w.fail(err)
	}
	if _, err := w.out.Write(cnt[:c]); err != nil {
		return w.fail(err)
	}
	if _, err := w.out.Write(payload); err != nil {
		return w.fail(err)
	}
	return nil
}

// fail records the first write error; all later operations return it.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("spill: writing run: %w", err)
	}
	return w.err
}

// Finish flushes the final frame, closes the file, and hands the run over
// for reading. On error the temp file is removed before returning.
func (w *Writer) Finish() (*Run, error) {
	if w.err == nil {
		if err := w.flushFrame(); err == nil {
			if err := w.bw.Flush(); err != nil {
				w.fail(err)
			}
		}
	}
	cerr := w.f.Close()
	w.done = true
	if w.err == nil && cerr != nil {
		w.fail(cerr)
	}
	if w.err != nil {
		os.Remove(w.path)
		return nil, w.err
	}
	return &Run{path: w.path}, nil
}

// Abort closes and removes the temp file. Safe to call more than once and
// after Finish (Finish transfers file ownership to the Run).
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.path)
}

// Run is a finished spill file, ready to be read (any number of times,
// sequentially) and eventually removed.
type Run struct {
	path    string
	removed bool
}

// Path reports the temp file backing the run.
func (r *Run) Path() string { return r.path }

// Open starts a sequential read of the run.
func (r *Run) Open() (*Reader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("spill: opening run: %w", err)
	}
	return &Reader{f: f, br: bufio.NewReaderSize(f, 1<<16)}, nil
}

// Remove deletes the temp file. Idempotent.
func (r *Run) Remove() error {
	if r.removed {
		return nil
	}
	r.removed = true
	if err := os.Remove(r.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("spill: removing run: %w", err)
	}
	return nil
}

// Reader streams a run frame by frame.
type Reader struct {
	f      *os.File
	br     *bufio.Reader
	header [8]byte
	buf    []byte
	closed bool
}

// Next returns the next frame's rows, freshly allocated, or (nil, nil) at a
// clean end of file. A truncated header or payload, or a checksum mismatch,
// is an error.
func (r *Reader) Next() ([][]types.Value, error) {
	count, frame, err := r.NextFrame()
	if err != nil || frame == nil {
		return nil, err
	}
	rows := make([][]types.Value, count)
	for i := range rows {
		if rows[i], frame, err = DecodeRow(frame); err != nil {
			return nil, err
		}
	}
	if len(frame) != 0 {
		return nil, fmt.Errorf("spill: %d trailing bytes in frame", len(frame))
	}
	return rows, nil
}

// NextFrame returns the next frame's record count and its checked payload
// after the count prefix, or (0, nil, nil) at a clean end of file. The
// payload aliases the reader's buffer and is valid until the next call;
// Next decodes it as rows, AppendFrame writers decode their own layout.
func (r *Reader) NextFrame() (int, []byte, error) {
	_, err := io.ReadFull(r.br, r.header[:])
	if err == io.EOF {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("spill: truncated frame header: %w", err)
	}
	size := binary.LittleEndian.Uint32(r.header[0:4])
	want := binary.LittleEndian.Uint32(r.header[4:8])
	if size == 0 || size > maxFrameBytes {
		return 0, nil, fmt.Errorf("spill: corrupt frame length %d", size)
	}
	if uint32(cap(r.buf)) < size {
		r.buf = make([]byte, size)
	}
	frame := r.buf[:size]
	if _, err := io.ReadFull(r.br, frame); err != nil {
		return 0, nil, fmt.Errorf("spill: truncated frame payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(frame); got != want {
		return 0, nil, fmt.Errorf("spill: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	count, sz := binary.Uvarint(frame)
	if sz <= 0 || count == 0 || count > maxFrameRowCount {
		return 0, nil, fmt.Errorf("spill: corrupt frame row count")
	}
	return int(count), frame[sz:], nil
}

// Close releases the reader; idempotent, because operators close readers
// eagerly and their spill sets close whatever remains at operator Close.
// The run file stays until Run.Remove.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.f.Close()
}
