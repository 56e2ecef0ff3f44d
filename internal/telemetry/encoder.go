// Package telemetry owns the run log: Record, the one definition of a
// log event that core.Simulate writes (Sinks.Log) and internal/assert
// checks, and the zero-allocation JSON Lines encoder that writes it.
// The encoder emits exactly the bytes encoding/json's Encoder would for
// the same field sequence — string escaping (HTML-safe, U+2028/U+2029,
// invalid UTF-8), ES6 shortest-round-trip float formatting and the
// trailing newline all match — but appends into one reusable buffer instead of reflecting
// over a struct per record, so a steady-state record costs no
// allocation at all. Byte-compatibility with the standard library is
// the package's contract, enforced by differential tests; the committed
// run-log goldens must never change because of it.
//
// # Number memo
//
// Run-log floats repeat: a span's end is the next span's start, every
// record at one instant shares its time, and clock rates, payload sizes
// and transfer durations come from a handful of operating points. Each
// Encoder therefore keeps a small direct-mapped memo of the text
// AppendFloat produced for recently seen values, and its AppendFloat
// method appends a hit's bytes instead of formatting again. The memo
// is keyed by the value's bit pattern, not by ==: 0 and -0 compare
// equal but format differently, and NaN never compares equal to
// itself. A slot holds the bits and the exact AppendFloat bytes inline,
// so the memo lives inside the Encoder and a record still costs no
// allocation; values whose text is longer than a slot, and the NaN and
// infinities AppendFloat refuses, are never stored. AppendFloat remains
// the one formatting function: a miss calls it and copies its output.
//
// # Records
//
// A caller that knows its schema appends a whole record itself: Open
// hands out the encoder's buffer with the record's '{' appended, the
// caller appends constant key fragments (`"t":`, `,"event":`, …),
// strings through AppendString and numbers through the Encoder's
// AppendFloat method, and Commit takes the buffer back and closes the
// record. The buffer lives in a local slice for the whole record, so a
// field costs no store into the heap Encoder. Begin, Str, Float, Floats
// and End are the same primitives behind one call per field, with the
// key and its separator written from the key's name.
package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// ErrUnsupportedValue mirrors encoding/json's refusal to encode NaN and
// infinities; record streams never contain them, so hitting this marks
// a caller bug, not a data condition.
var ErrUnsupportedValue = errors.New("telemetry: unsupported float value (NaN or Inf)")

// flushAt bounds the encode buffer: Commit hands the buffer to the writer
// once it grows past this, so a multi-hundred-thousand-record log
// streams through a fixed window instead of materializing in memory.
const flushAt = 32 << 10

// The number memo: memoSlots direct-mapped slots of memoSlot, 8 KB per
// encoder. A 1024-slot memo measured no faster on the full-window 2C
// and 2D run logs.
const (
	memoBits  = 8
	memoSlots = 1 << memoBits
)

// memoSlot caches the text of one float64, keyed by its bit pattern;
// n == 0 marks an empty slot (every formatted number has a digit). The
// text array sizes the slot to 32 bytes; longer numbers bypass the memo.
type memoSlot struct {
	bits uint64
	n    uint8
	text [23]byte
}

// memoIndex maps a bit pattern to its slot: a Fibonacci multiplicative
// hash, so values differing only in low mantissa bits spread out.
func memoIndex(bits uint64) uint64 {
	return (bits * 0x9e3779b97f4a7c15) >> (64 - memoBits)
}

// Encoder writes JSON Lines records through one reusable buffer. Usage
// per record: Open, appends, Commit; or Begin, one call per field in
// declaration order, End. A caller implements omitempty by leaving a
// field out. The zero Encoder is not ready; use NewEncoder.
//
// Float values go through the encoder's number memo (see the package
// comment): a value formatted before, and not evicted since, is copied
// from its slot rather than re-formatted. The memo is part of the
// Encoder value, so it adds no per-record allocation; a slot's text
// depends on nothing but the value's bits, so Reset keeps it.
type Encoder struct {
	w     io.Writer
	buf   []byte
	err   error
	first bool
	// refused marks an unsupported value met in the open record.
	refused bool
	// flushed counts the records whose bytes reached the writer — the
	// honest figure to report after a mid-stream write error.
	flushed int
	// pending is how many completed records sit in buf; start is where
	// the open record begins in it.
	pending int
	start   int
	memo    [memoSlots]memoSlot
}

// NewEncoder returns an encoder streaming to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Reset points the encoder at a new writer, keeping the grown buffer
// and the number memo.
func (e *Encoder) Reset(w io.Writer) {
	e.w = w
	e.buf = e.buf[:0]
	e.err, e.refused = nil, false
	e.flushed, e.pending = 0, 0
}

// Err returns the first error encountered (a write failure or an
// unsupported value).
func (e *Encoder) Err() error { return e.err }

// Flushed returns how many records have fully reached the writer.
func (e *Encoder) Flushed() int { return e.flushed }

// Open starts a record: it hands out the buffer with the record's '{'
// appended, for the caller to append the fields to and give back to
// Commit.
func (e *Encoder) Open() []byte {
	e.start = len(e.buf)
	return append(e.buf, '{')
}

// Commit takes back the buffer Open handed out, closes the record with
// the newline encoding/json's Encoder appends, and flushes once the
// buffer is full. A record that met an unsupported value is dropped
// whole instead (see refuse).
func (e *Encoder) Commit(buf []byte) {
	e.buf = append(buf, '}', '\n')
	if e.refused {
		e.refuse()
		return
	}
	e.pending++
	if len(e.buf) >= flushAt {
		e.Flush()
	}
}

// Begin opens a record for the field methods.
func (e *Encoder) Begin() {
	e.buf = e.Open()
	e.first = true
}

// End closes the record Begin opened.
func (e *Encoder) End() { e.Commit(e.buf) }

// Flush hands buffered bytes to the writer. A failed write still counts
// the records whose lines it delivered whole: every record ends in the
// one newline its encoding contains.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		if n, werr := e.w.Write(e.buf); werr != nil {
			e.err = werr
			e.flushed += bytes.Count(e.buf[:max(0, min(n, len(e.buf)))], []byte{'\n'})
		} else {
			e.flushed += e.pending
		}
	}
	e.pending = 0
	e.buf = e.buf[:0]
	return e.err
}

// key appends the separator and a field key. Keys are trusted literal
// identifiers and are not escaped.
func (e *Encoder) key(k string) {
	if e.first {
		e.first = false
	} else {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"', ':')
}

// Str appends a string field.
func (e *Encoder) Str(k, v string) {
	e.key(k)
	e.buf = AppendString(e.buf, v)
}

// Float appends a float64 field.
func (e *Encoder) Float(k string, v float64) {
	e.key(k)
	e.buf = e.AppendFloat(e.buf, v)
	if e.refused {
		e.refuse()
	}
}

// Floats appends a float64-array field.
func (e *Encoder) Floats(k string, vs []float64) {
	e.key(k)
	e.buf = append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = e.AppendFloat(e.buf, v)
	}
	e.buf = append(e.buf, ']')
	if e.refused {
		e.refuse()
	}
}

// AppendFloat appends v to dst through the number memo: a slot holding
// v's bits supplies the text, otherwise the package's AppendFloat
// formats v and the slot takes a copy. A refused value (NaN, ±Inf)
// appends nothing, is never stored, and marks the open record, which
// Commit then drops with ErrUnsupportedValue.
func (e *Encoder) AppendFloat(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	s := &e.memo[memoIndex(bits)]
	if s.n != 0 && s.bits == bits {
		return append(dst, s.text[:s.n]...)
	}
	start := len(dst)
	dst, ok := AppendFloat(dst, v)
	if !ok {
		e.refused = true
		return dst
	}
	if n := len(dst) - start; n <= len(s.text) {
		s.bits, s.n = bits, uint8(n)
		copy(s.text[:], dst[start:])
	}
	return dst
}

// refuse sets ErrUnsupportedValue, unless an error came first, after
// handing the writer the whole records before the open one: what
// reaches the writer is then every record before the refused one,
// however the stream was split into flushes. The field methods call it
// at the refused value, Commit at the end of the record.
func (e *Encoder) refuse() {
	if e.err != nil {
		return
	}
	e.buf = e.buf[:min(e.start, len(e.buf))]
	if e.Flush() == nil {
		e.err = ErrUnsupportedValue
	}
}

// hex digits for \u00XX escapes, as in encoding/json.
const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, byte-identical to
// encoding/json with HTML escaping on: quote/backslash and the short
// control escapes, \u00XX for remaining control bytes and for & < >,
// \ufffd for invalid UTF-8 and \u2028/\u2029 for the JS line
// separators. A string of safe bytes only, every run-log label among
// them, is copied whole after one scan of the safeBytes table.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !safeBytes[s[i]] {
			return appendEscaped(append(dst, '"'), s, i)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// safeBytes marks the bytes encoding/json's HTML-escaping table passes
// through unescaped: printable ASCII but for the quote, the backslash
// and & < >. Every byte of a multi-byte rune is unmarked, so the
// escaper checks its encoding.
var safeBytes = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendEscaped is AppendString's escaper, from s[i], the first byte
// the table does not pass: s[:i] needs no escape.
func appendEscaped(dst []byte, s string, i int) []byte {
	start := 0
	for i < len(s) {
		if b := s[i]; b < utf8.RuneSelf {
			if safeBytes[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

// AppendFloat appends f in encoding/json's ES6-style number format:
// shortest round-trip decimal, fixed notation for 1e-6 ≤ |f| < 1e21,
// exponent notation outside that with single-digit negative exponents
// unpadded. ok is false (nothing appended) for NaN and ±Inf, which
// encoding/json refuses too.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims the padded zero of small exponents:
		// "e-09" → "e-9".
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
