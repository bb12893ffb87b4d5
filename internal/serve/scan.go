package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"perfpred/internal/dataset"
)

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
// and the gateway alike. It validates the whole body as one JSON value
// with json.Valid, so the grammar and nesting limit are encoding/json's
// and nothing but whitespace may follow the value, and then applies the
// strict contract that needs no schema: an
// object whose keys match model, row and rows as encoding/json matches
// them (case-folded, last duplicate wins, unknown keys rejected), a
// non-empty model string, exactly one of row and rows set (null counts
// as unset), an array per row, and 1..MaxRowsPerRequest rows. Cell
// values are left for pass 2, so an overflowing literal such as 1e999
// passes here. Only a key or model name that needs unescaping, or a
// rejected body, allocates.
func ScanPredict(body []byte) (ScannedRequest, error) {
	var q ScannedRequest
	if len(body) > MaxRequestBytes {
		return q, fmt.Errorf("serve: predict request exceeds %d bytes", MaxRequestBytes)
	}
	if !json.Valid(body) {
		return q, rejectBody(body)
	}
	start := skipSpace(body, 0)
	end := valueEnd(body, start)
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

// rejectBody names why json.Valid refused body: junk after one valid
// value is trailing data, and any other failure is encoding/json's own
// error.
func rejectBody(body []byte) error {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(new(json.RawMessage)); err != nil {
		return fmt.Errorf("serve: decoding predict request: %w", err)
	}
	return errors.New("serve: predict request has trailing data after the JSON body")
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
// missing from labels or needs unescaping (see Unquote).
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

// Unquote returns the value of a JSON string literal that ScanPredict
// validated, decoded by encoding/json: escapes resolved, invalid UTF-8
// and unpaired surrogates replaced by U+FFFD. When s holds no escape and
// is valid UTF-8 the result is s's own bytes; otherwise json.Unmarshal
// decodes it, which allocates, and the value is appended to buf.
func Unquote(buf, s []byte) []byte {
	inner := s[1 : len(s)-1]
	if bytes.IndexByte(inner, '\\') < 0 && utf8.Valid(inner) {
		return inner
	}
	var v string
	_ = json.Unmarshal(s, &v) // cannot fail: ScanPredict validated s
	return append(buf, v...)
}
