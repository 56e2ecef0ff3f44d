// Package telemetry is the zero-allocation JSON Lines encoder behind
// core.Simulate's event log (Sinks.Log). It emits
// exactly the bytes encoding/json's Encoder would for the same field
// sequence — string escaping (HTML-safe, U+2028/U+2029, invalid UTF-8),
// ES6 shortest-round-trip float formatting and the trailing newline all
// match — but appends into one reusable buffer instead of reflecting
// over a struct per record, so a steady-state record costs no
// allocation at all. Byte-compatibility with the standard library is
// the package's contract, enforced by differential tests; the committed
// run-log goldens must never change because of it.
package telemetry

import (
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

// flushAt bounds the encode buffer: End hands the buffer to the writer
// once it grows past this, so a multi-hundred-thousand-record log
// streams through a fixed window instead of materializing in memory.
const flushAt = 32 << 10

// Encoder writes JSON Lines records through one reusable buffer. Usage
// per record: Begin, one call per present field in declaration order
// (the *Omit variants implement omitempty/omitzero), End. The zero
// Encoder is not ready; use NewEncoder.
type Encoder struct {
	w     io.Writer
	buf   []byte
	err   error
	first bool
	// done counts fully encoded records; flushed counts those whose
	// bytes reached the writer — the honest figure to report after a
	// mid-stream write error.
	done    int
	flushed int
	// pending is how many completed records sit in buf.
	pending int
}

// NewEncoder returns an encoder streaming to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Reset points the encoder at a new writer, keeping the grown buffer.
func (e *Encoder) Reset(w io.Writer) {
	e.w = w
	e.buf = e.buf[:0]
	e.err = nil
	e.done, e.flushed, e.pending = 0, 0, 0
}

// Err returns the first error encountered (a write failure or an
// unsupported value).
func (e *Encoder) Err() error { return e.err }

// Flushed returns how many records have fully reached the writer.
func (e *Encoder) Flushed() int { return e.flushed }

// Begin opens a record.
func (e *Encoder) Begin() {
	e.buf = append(e.buf, '{')
	e.first = true
}

// End closes the record with the newline encoding/json's Encoder
// appends, and flushes once the buffer is full.
func (e *Encoder) End() {
	e.buf = append(e.buf, '}', '\n')
	e.done++
	e.pending++
	if len(e.buf) >= flushAt {
		e.Flush()
	}
}

// Flush hands buffered bytes to the writer.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		if _, werr := e.w.Write(e.buf); werr != nil {
			e.err = werr
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

// StrOmit appends a string field unless it is empty (omitempty).
func (e *Encoder) StrOmit(k, v string) {
	if v != "" {
		e.Str(k, v)
	}
}

// Float appends a float64 field.
func (e *Encoder) Float(k string, v float64) {
	e.key(k)
	var ok bool
	if e.buf, ok = AppendFloat(e.buf, v); !ok && e.err == nil {
		e.err = ErrUnsupportedValue
	}
}

// FloatOmit appends a float64 field unless it is zero (omitempty).
func (e *Encoder) FloatOmit(k string, v float64) {
	if v != 0 {
		e.Float(k, v)
	}
}

// Int appends an int field.
func (e *Encoder) Int(k string, v int) {
	e.key(k)
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}

// IntOmit appends an int field unless it is zero (omitempty).
func (e *Encoder) IntOmit(k string, v int) {
	if v != 0 {
		e.Int(k, v)
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
		var ok bool
		if e.buf, ok = AppendFloat(e.buf, v); !ok && e.err == nil {
			e.err = ErrUnsupportedValue
		}
	}
	e.buf = append(e.buf, ']')
}

// hex digits for \u00XX escapes, as in encoding/json.
const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, byte-identical to
// encoding/json with HTML escaping on: quote/backslash and the short
// control escapes, \u00XX for remaining control bytes and for & < >,
// \ufffd for invalid UTF-8 and \u2028/\u2029 for the JS line
// separators.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
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

// htmlSafe reports whether an ASCII byte passes through unescaped under
// encoding/json's HTML-escaping table.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
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
