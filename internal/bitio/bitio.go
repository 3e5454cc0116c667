// Package bitio provides bit-granular writers and readers. Nothing in the
// module imports it: the codec's entropy coders (internal/arith and the
// RLGR tile coder) write their own streams.
package bitio

import "errors"

// ErrShortRead is reported by Reader.Err after a read past the end of the
// buffer. Reads past the end return zero bits, which lets arithmetic
// decoders flush naturally; callers check Err when exactness matters.
var ErrShortRead = errors.New("bitio: read past end of buffer")

// Writer accumulates bits MSB-first into a byte buffer.
type Writer struct {
	buf  []byte
	cur  byte
	nCur uint // bits currently held in cur, 0..7
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBit appends a single bit (any non-zero value counts as 1).
func (w *Writer) WriteBit(bit int) {
	w.cur <<= 1
	if bit != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// WriteByte appends one whole byte.
func (w *Writer) WriteByte(b byte) error {
	w.WriteBits(uint64(b), 8)
	return nil
}

// Len returns the number of complete bytes plus any partial byte, i.e. the
// length Bytes() would return right now.
func (w *Writer) Len() int {
	if w.nCur > 0 {
		return len(w.buf) + 1
	}
	return len(w.buf)
}

// BitLen returns the exact number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nCur) }

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// accumulated buffer. The writer remains usable; further writes continue
// from a byte boundary.
func (w *Writer) Bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int  // next byte index
	cur  byte // current byte being consumed
	nCur uint // bits remaining in cur
	err  error
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit returns the next bit, or 0 after the end of the buffer (recording
// ErrShortRead).
func (r *Reader) ReadBit() int {
	if r.nCur == 0 {
		if r.pos >= len(r.buf) {
			r.err = ErrShortRead
			return 0
		}
		r.cur = r.buf[r.pos]
		r.pos++
		r.nCur = 8
	}
	r.nCur--
	return int(r.cur >> r.nCur & 1)
}

// ReadBits returns the next n bits as an unsigned integer, MSB-first.
func (r *Reader) ReadBits(n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		v = v<<1 | uint64(r.ReadBit())
	}
	return v
}

// Err reports whether any read ran past the end of the buffer.
func (r *Reader) Err() error { return r.err }

// BitsConsumed returns how many bits have been read (over-end reads count).
func (r *Reader) BitsConsumed() int {
	return r.pos*8 - int(r.nCur)
}
