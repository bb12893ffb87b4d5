package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"perfpred/internal/dataset"
)

// maxNestingDepth is encoding/json's nesting limit; a body nested deeper
// is a syntax error on both sides of the differential fuzz.
const maxNestingDepth = 10000

// ScannedRequest is pass 1's view of a /v1/predict body: everything the
// strict contract can check without a schema. Its byte slices alias the
// scanned body.
type ScannedRequest struct {
	// Model is the decoded model name; never empty.
	Model []byte
	// Single reports the row form; N is then 1.
	Single bool
	// N is the number of rows, 1..MaxRowsPerRequest.
	N int
	// rows is the row array (Single) or the rows array.
	rows []byte
}

// ScanPredict is pass 1 of the /v1/predict decoder, run by the replica
// and the gateway alike. It validates the whole body as one JSON value,
// with encoding/json's nesting limit and nothing but whitespace after
// it, and then applies the strict contract that needs no schema: an
// object whose keys match model, row and rows as encoding/json matches
// them (case-folded, last duplicate wins, unknown keys rejected), a
// non-empty model string, exactly one of row and rows set (null counts
// as unset), an array per row, and 1..MaxRowsPerRequest rows. Cell
// values are left for pass 2, so an overflowing literal such as 1e999
// passes here. Only a model name that needs unescaping, or a rejected
// body, allocates.
func ScanPredict(body []byte) (ScannedRequest, error) {
	var q ScannedRequest
	if len(body) > MaxRequestBytes {
		return q, fmt.Errorf("serve: predict request exceeds %d bytes", MaxRequestBytes)
	}
	start := skipSpace(body, 0)
	end, err := scanValue(body, start, 0)
	if err != nil {
		return q, fmt.Errorf("serve: decoding predict request: %w", err)
	}
	if skipSpace(body, end) != len(body) {
		return q, errors.New("serve: predict request has trailing data after the JSON body")
	}
	if body[start] != '{' {
		return q, fmt.Errorf("serve: decoding predict request: want a JSON object, got %s", kindOf(body[start:end]))
	}
	var model, row, rows []byte
	n := 0
	members := Values(body[start:end])
	for {
		key, v, ok := members.Next()
		if !ok {
			break
		}
		var kbuf [16]byte
		name := Unquote(kbuf[:0], key)
		switch {
		case bytes.EqualFold(name, []byte("model")):
			switch v[0] {
			case '"':
				model = v
			case 'n': // null leaves a string as it was
			default:
				return q, fmt.Errorf("serve: decoding predict request: model must be a string, got %s", kindOf(v))
			}
		case bytes.EqualFold(name, []byte("row")):
			switch v[0] {
			case '[':
				row = v
			case 'n':
				row = nil
			default:
				return q, fmt.Errorf("serve: decoding predict request: row must be an array, got %s", kindOf(v))
			}
		case bytes.EqualFold(name, []byte("rows")):
			switch v[0] {
			case '[':
				rows, n = v, 0
				elems := Values(v)
				for _, e, ok := elems.Next(); ok; _, e, ok = elems.Next() {
					if e[0] != '[' && e[0] != 'n' {
						return q, fmt.Errorf("serve: decoding predict request: rows[%d] must be an array, got %s", n, kindOf(e))
					}
					n++
				}
			case 'n':
				rows = nil
			default:
				return q, fmt.Errorf("serve: decoding predict request: rows must be an array, got %s", kindOf(v))
			}
		default:
			return q, fmt.Errorf("serve: decoding predict request: unknown field %q", string(name))
		}
	}
	if model != nil {
		q.Model = Unquote(nil, model)
	}
	if len(q.Model) == 0 {
		return q, errors.New("serve: predict request has no model")
	}
	if (row == nil) == (rows == nil) {
		return q, errors.New("serve: predict request must set exactly one of row, rows")
	}
	if row != nil {
		q.Single, q.N, q.rows = true, 1, row
		return q, nil
	}
	if n == 0 {
		return q, errors.New("serve: predict request rows is empty")
	}
	if n > MaxRowsPerRequest {
		return q, fmt.Errorf("serve: predict request has %d rows (max %d)", n, MaxRowsPerRequest)
	}
	q.N, q.rows = n, rows
	return q, nil
}

// scan reads a /v1/predict body into ws and runs pass 1 over it; the
// result aliases ws.body.
func (ws *rowScratch) scan(r io.Reader) (ScannedRequest, error) {
	ws.body.Reset()
	if _, err := ws.body.ReadFrom(r); err != nil {
		return ScannedRequest{}, fmt.Errorf("serve: reading predict request: %w", err)
	}
	return ScanPredict(ws.body.Bytes())
}

// Rows returns a cursor over the request's rows, each an array or null
// value span.
func (q *ScannedRequest) Rows() Cursor {
	if q.Single {
		return Cursor{one: q.rows}
	}
	return Values(q.rows)
}

// encodeRows is pass 2: it resolves every cell against enc's schema into
// ws's flat value scratch, interning categorical labels through labels
// (see dataset.Encoder.Labels), then encodes the rows with
// enc.EncodeRows into ws.enc. It accepts and rejects exactly what
// PredictRequest.Resolve followed by EncodeRows does, with the same
// error text, and on a warm ws allocates nothing unless a label is
// missing from labels.
func (q *ScannedRequest) encodeRows(ws *rowScratch, enc *dataset.Encoder, labels map[string]string) ([][]float64, error) {
	fields := enc.Schema().Fields
	width := len(fields)
	if cap(ws.vals) < q.N*width {
		ws.vals = make([]dataset.Value, q.N*width)
	}
	if cap(ws.rows) < q.N {
		ws.rows = make([][]dataset.Value, q.N)
	}
	rows := ws.rows[:q.N]
	it := q.Rows()
	for r := range rows {
		_, span, _ := it.Next()
		rows[r] = ws.vals[r*width : (r+1)*width : (r+1)*width]
		if err := resolveRow(rows[r], span, fields, labels); err != nil {
			return nil, fmt.Errorf("serve: row %d: %w", r, err)
		}
	}
	return enc.EncodeRows(&ws.enc, rows)
}

// resolveRow resolves one row's cells into dst (len(dst) == len(fields)).
// Arity is checked before any cell error is reported, as RowFromAny does.
func resolveRow(dst []dataset.Value, span []byte, fields []dataset.Field, labels map[string]string) error {
	var err error
	n := 0
	cells := Values(span)
	for _, c, ok := cells.Next(); ok; _, c, ok = cells.Next() {
		if err == nil && n < len(fields) {
			dst[n], err = resolveCell(fields[n], c, labels)
		}
		n++
	}
	if n != len(fields) {
		return fmt.Errorf("dataset: row has %d values, schema has %d fields", n, len(fields))
	}
	return err
}

// resolveCell converts one cell for field f, with RowFromAny's checks.
func resolveCell(f dataset.Field, c []byte, labels map[string]string) (dataset.Value, error) {
	switch f.Kind {
	case dataset.Numeric:
		if c[0] != '-' && (c[0] < '0' || c[0] > '9') {
			return dataset.Value{}, fmt.Errorf("dataset: field %q: want a number, got %s", f.Name, kindOf(c))
		}
		x, err := strconv.ParseFloat(string(c), 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return dataset.Value{}, fmt.Errorf("dataset: field %q: non-finite or unparseable number %q", f.Name, c)
		}
		return dataset.Num(x), nil
	case dataset.Flag:
		if c[0] != 't' && c[0] != 'f' {
			return dataset.Value{}, fmt.Errorf("dataset: field %q: want a boolean, got %s", f.Name, kindOf(c))
		}
		return dataset.FlagVal(c[0] == 't'), nil
	case dataset.Categorical:
		if c[0] != '"' {
			return dataset.Value{}, fmt.Errorf("dataset: field %q: want a string, got %s", f.Name, kindOf(c))
		}
		var lbuf [64]byte
		b := Unquote(lbuf[:0], c)
		if len(b) == 0 {
			return dataset.Value{}, fmt.Errorf("dataset: field %q: empty category", f.Name)
		}
		if len(b) > dataset.MaxCategoryLen {
			return dataset.Value{}, fmt.Errorf("dataset: field %q: category longer than %d bytes", f.Name, dataset.MaxCategoryLen)
		}
		label, ok := labels[string(b)]
		if !ok {
			label = string(b)
		}
		return dataset.Cat(label), nil
	default:
		return dataset.Value{}, fmt.Errorf("dataset: field %q has unknown kind %v", f.Name, f.Kind)
	}
}

// kindOf names a JSON value span's type the way RowFromAny names a
// decoded value's.
func kindOf(v []byte) string {
	switch v[0] {
	case 'n':
		return "null"
	case 't', 'f':
		return "a boolean"
	case '"':
		return "a string"
	case '[':
		return "an array"
	case '{':
		return "an object"
	default:
		return "a number"
	}
}

// Cursor walks the values of one JSON array or object span that
// ScanPredict has validated, in order.
type Cursor struct {
	b   []byte
	i   int    // the opening bracket or the separator before the next value
	one []byte // a lone value yielded once instead of b's (ScannedRequest.Rows)
}

// Values returns a cursor over a validated array or object span. A null
// span has no values.
func Values(span []byte) Cursor {
	if span[0] == 'n' {
		return Cursor{}
	}
	return Cursor{b: span}
}

// Next returns the next value's span and, inside an object, its member's
// raw (quoted) key; ok is false once the values are exhausted.
func (c *Cursor) Next() (key, val []byte, ok bool) {
	if c.one != nil {
		val, c.one = c.one, nil
		return nil, val, true
	}
	b := c.b
	if c.i >= len(b)-1 {
		return nil, nil, false
	}
	i := skipSpace(b, c.i+1)
	if b[i] == ']' || b[i] == '}' {
		c.i = len(b)
		return nil, nil, false
	}
	if b[0] == '{' {
		e := valueEnd(b, i)
		key = b[i:e]
		i = skipSpace(b, skipSpace(b, e)+1)
	}
	e := valueEnd(b, i)
	c.i = skipSpace(b, e)
	return key, b[i:e], true
}

// valueEnd returns the offset just past the validated JSON value at b[i].
func valueEnd(b []byte, i int) int {
	switch b[i] {
	case '"':
		for i++; b[i] != '"'; i++ {
			if b[i] == '\\' {
				i++
			}
		}
		return i + 1
	case '[', '{':
		for depth := 0; ; i++ {
			switch b[i] {
			case '"':
				i = valueEnd(b, i) - 1
			case '[', '{':
				depth++
			case ']', '}':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	default: // a number or a literal
		for i < len(b) && b[i] != ',' && b[i] != ']' && b[i] != '}' && !isSpace(b[i]) {
			i++
		}
		return i
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// scanValue validates the JSON value at b[i], inside depth enclosing
// containers, and returns the offset just past it.
func scanValue(b []byte, i, depth int) (int, error) {
	if i >= len(b) {
		return i, errors.New("unexpected end of JSON input")
	}
	switch c := b[i]; {
	case c == '"':
		return scanString(b, i)
	case c == '[' || c == '{':
		return scanContainer(b, i, depth+1)
	case c == '-' || '0' <= c && c <= '9':
		return scanNumber(b, i)
	case c == 't':
		return scanLiteral(b, i, "true")
	case c == 'f':
		return scanLiteral(b, i, "false")
	case c == 'n':
		return scanLiteral(b, i, "null")
	}
	return i, badChar(b, i, "looking for beginning of value")
}

func scanContainer(b []byte, i, depth int) (int, error) {
	if depth > maxNestingDepth {
		return i, fmt.Errorf("exceeded max depth at offset %d", i)
	}
	obj, closer := b[i] == '{', byte(']')
	if obj {
		closer = '}'
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == closer {
		return i + 1, nil
	}
	for {
		var err error
		if obj {
			if i >= len(b) || b[i] != '"' {
				return i, badChar(b, i, "looking for beginning of object key string")
			}
			if i, err = scanString(b, i); err != nil {
				return i, err
			}
			if i = skipSpace(b, i); i >= len(b) || b[i] != ':' {
				return i, badChar(b, i, "after object key")
			}
			i = skipSpace(b, i+1)
		}
		if i, err = scanValue(b, i, depth); err != nil {
			return i, err
		}
		switch i = skipSpace(b, i); {
		case i < len(b) && b[i] == ',':
			i = skipSpace(b, i+1)
		case i < len(b) && b[i] == closer:
			return i + 1, nil
		default:
			return i, badChar(b, i, "after array element or object value")
		}
	}
}

func scanString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, nil
		case c < 0x20:
			return i, badChar(b, i, "in string literal")
		case c == '\\':
			if i++; i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return len(b), errors.New("unexpected end of JSON input")
				}
				for _, h := range b[i+1 : i+5] {
					if unhex(h) < 0 {
						return i, badChar(b, i, "in \\u hexadecimal character escape")
					}
				}
				i += 4
			default:
				return i, badChar(b, i, "in string escape code")
			}
		}
	}
	return len(b), errors.New("unexpected end of JSON input")
}

func scanNumber(b []byte, i int) (int, error) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return i, badChar(b, i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return j, badChar(b, j, "after decimal point in numeric literal")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return j, badChar(b, j, "in exponent of numeric literal")
		}
		i = j
	}
	return i, nil
}

func scanLiteral(b []byte, i int, lit string) (int, error) {
	for k := 0; k < len(lit); k++ {
		if i+k >= len(b) || b[i+k] != lit[k] {
			return i + k, badChar(b, i+k, "in literal "+lit)
		}
	}
	return i + len(lit), nil
}

func badChar(b []byte, i int, where string) error {
	if i >= len(b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", b[i], where, i)
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// Unquote returns the value of a JSON string literal that ScanPredict
// validated, decoded exactly as encoding/json decodes it: escapes
// resolved, invalid UTF-8 and unpaired surrogates replaced by U+FFFD.
// When s holds no escape and is valid UTF-8 the result is s's own bytes;
// otherwise the value is appended to buf.
func Unquote(buf, s []byte) []byte {
	s = s[1 : len(s)-1]
	r := 0
	for r < len(s) && s[r] != '\\' {
		if s[r] < utf8.RuneSelf {
			r++
			continue
		}
		c, size := utf8.DecodeRune(s[r:])
		if c == utf8.RuneError && size == 1 {
			break
		}
		r += size
	}
	if r == len(s) {
		return s
	}
	out := append(buf, s[:r]...)
	for r < len(s) {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch e := s[r]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				u := hex4(s[r+1:])
				r += 5
				if utf16.IsSurrogate(u) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if pair := utf16.DecodeRune(u, hex4(s[r+2:])); pair != utf8.RuneError {
							out = utf8.AppendRune(out, pair)
							r += 6
							continue
						}
					}
					u = utf8.RuneError
				}
				out = utf8.AppendRune(out, u)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r++
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			u, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, u)
			r += size
		}
	}
	return out
}

// hex4 decodes the four validated hex digits at the start of b.
func hex4(b []byte) rune {
	return unhex(b[0])<<12 | unhex(b[1])<<8 | unhex(b[2])<<4 | unhex(b[3])
}
