package dataset

import (
	"errors"
	"fmt"
	"sort"
)

// Mode selects the encoding convention for a model family.
type Mode int

const (
	// ForNN encodes for neural networks: numeric fields min-max scaled to
	// [0,1], flags to {0,1}, categoricals one-hot. The target is also
	// scaled to [0,1] (Clementine behaviour; the inverse transform restores
	// predictions to the original units).
	ForNN Mode = iota
	// ForLR encodes for linear regression: numeric fields min-max scaled,
	// flags to {0,1}, categoricals coerced through their NumericLevels
	// mapping (then scaled) or omitted entirely when no mapping exists.
	// The target is left in original units.
	ForLR
)

// String returns the mode name.
func (m Mode) String() string {
	if m == ForNN {
		return "NN"
	}
	return "LR"
}

// column is one encoded input column derived from a schema field.
type column struct {
	field int    // index into schema.Fields
	name  string // derived column name
	// For one-hot columns: the category this column indicates.
	category string
	oneHot   bool
	// Min-max scaling parameters for numeric-valued columns.
	min, max float64
}

// Encoder transforms records into model-ready feature vectors. It is
// fitted on a training dataset (recording scaling ranges, category sets and
// constant fields) and then applied consistently to train and test data.
type Encoder struct {
	schema *Schema
	mode   Mode
	cols   []column
	// omitted records why each dropped field was dropped, for reporting.
	omitted map[string]string
	yMin    float64
	yMax    float64
	scaleY  bool
}

// FitEncoder builds an encoder for the given mode from training data.
// Fields with no variation in the training data are omitted, as are
// (under ForLR) categoricals lacking a numeric mapping.
func FitEncoder(train *Dataset, mode Mode) (*Encoder, error) {
	if train.Len() == 0 {
		return nil, errors.New("dataset: cannot fit encoder on empty dataset")
	}
	e := &Encoder{
		schema:  train.Schema(),
		mode:    mode,
		omitted: map[string]string{},
		scaleY:  mode == ForNN,
	}
	// A categorical field's categories decide how many columns it yields,
	// so they are found first and the column slice is sized once, for
	// every field kept.
	fields := e.schema.Fields
	cats := make([][]string, len(fields))
	width := 0
	for fi, f := range fields {
		if f.Kind == Categorical {
			cats[fi] = categoriesOf(train, fi)
			if mode == ForNN {
				width += len(cats[fi])
				continue
			}
		}
		width++
	}
	e.cols = make([]column, 0, width)
	for fi, f := range fields {
		switch f.Kind {
		case Numeric:
			lo, hi := numericRangeOf(train, fi, nil)
			if lo == hi {
				e.omitted[f.Name] = "constant in training data"
				continue
			}
			e.cols = append(e.cols, column{field: fi, name: f.Name, min: lo, max: hi})
		case Flag:
			if flagConstant(train, fi) {
				e.omitted[f.Name] = "constant in training data"
				continue
			}
			e.cols = append(e.cols, column{field: fi, name: f.Name, min: 0, max: 1})
		case Categorical:
			if len(cats[fi]) < 2 {
				e.omitted[f.Name] = "constant in training data"
				continue
			}
			if mode == ForLR {
				if f.NumericLevels == nil {
					e.omitted[f.Name] = "categorical without numeric mapping (LR cannot use it)"
					continue
				}
				lo, hi := numericRangeOf(train, fi, f.NumericLevels)
				if lo == hi {
					e.omitted[f.Name] = "constant after numeric mapping"
					continue
				}
				e.cols = append(e.cols, column{field: fi, name: f.Name, min: lo, max: hi})
				continue
			}
			for _, c := range cats[fi] {
				e.cols = append(e.cols, column{
					field:    fi,
					name:     f.Name + "=" + c,
					category: c,
					oneHot:   true,
					min:      0,
					max:      1,
				})
			}
		}
	}
	if len(e.cols) == 0 {
		return nil, errors.New("dataset: no usable input fields after preparation")
	}
	e.yMin, e.yMax = train.Target(0), train.Target(0)
	for i := 1; i < train.Len(); i++ {
		y := train.Target(i)
		if y < e.yMin {
			e.yMin = y
		}
		if y > e.yMax {
			e.yMax = y
		}
	}
	if e.scaleY && e.yMin == e.yMax {
		return nil, errors.New("dataset: target is constant; nothing to model")
	}
	return e, nil
}

func numericRangeOf(d *Dataset, fi int, levels map[string]float64) (lo, hi float64) {
	first := true
	for i := 0; i < d.Len(); i++ {
		v := d.Row(i)[fi]
		var x float64
		if levels != nil {
			x = levels[v.Label()]
		} else {
			x = v.Float()
		}
		if first {
			lo, hi = x, x
			first = false
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func flagConstant(d *Dataset, fi int) bool {
	if d.Len() == 0 {
		return true
	}
	first := d.Row(0)[fi].Bool()
	for i := 1; i < d.Len(); i++ {
		if d.Row(i)[fi].Bool() != first {
			return false
		}
	}
	return true
}

func categoriesOf(d *Dataset, fi int) []string {
	set := map[string]bool{}
	for i := 0; i < d.Len(); i++ {
		set[d.Row(i)[fi].Label()] = true
	}
	cats := make([]string, 0, len(set))
	for c := range set {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	return cats
}

// Mode returns the encoding mode the encoder was fitted with.
func (e *Encoder) Mode() Mode { return e.mode }

// Schema returns the schema the encoder was fitted over.
func (e *Encoder) Schema() *Schema { return e.schema }

// ColumnNames returns the derived input column names, in order.
func (e *Encoder) ColumnNames() []string {
	out := make([]string, len(e.cols))
	for i, c := range e.cols {
		out[i] = c.name
	}
	return out
}

// NumColumns returns the width of encoded feature vectors.
func (e *Encoder) NumColumns() int { return len(e.cols) }

// Omitted reports fields dropped during preparation and the reason, keyed
// by field name.
func (e *Encoder) Omitted() map[string]string {
	out := make(map[string]string, len(e.omitted))
	for k, v := range e.omitted {
		out[k] = v
	}
	return out
}

// Labels returns every categorical label the encoder tells apart — its
// one-hot categories and the numeric levels of the schema's categorical
// fields — each mapped to itself. A request decoder interns labels
// through it, so a known label costs no allocation.
func (e *Encoder) Labels() map[string]string {
	out := map[string]string{}
	for _, f := range e.schema.Fields {
		for l := range f.NumericLevels {
			out[l] = l
		}
	}
	for _, c := range e.cols {
		if c.oneHot {
			out[c.category] = c.category
		}
	}
	return out
}

// SourceField returns the schema field name an encoded column derives from.
// One-hot columns of the same categorical field share a source field.
func (e *Encoder) SourceField(col int) string {
	return e.schema.Fields[e.cols[col].field].Name
}

// EncodeRow encodes one record into a feature vector.
func (e *Encoder) EncodeRow(row []Value) ([]float64, error) {
	x := make([]float64, len(e.cols))
	if err := e.EncodeRowInto(x, row); err != nil {
		return nil, err
	}
	return x, nil
}

// RowBuffer is reusable storage for an encoded batch: every encoded row
// is a view into one flat backing array. Both grow only when a larger
// batch arrives, so steady-state encoding into a reused buffer
// allocates nothing.
type RowBuffer struct {
	flat []float64
	rows [][]float64
}

// EncodeRows encodes a batch of raw records into buf and returns the
// encoded matrix, valid until buf is next used. Each record goes through
// EncodeRowInto, so the batch is accepted exactly when every record is;
// an error names the first failing row.
func (e *Encoder) EncodeRows(buf *RowBuffer, rows [][]Value) ([][]float64, error) {
	n, width := len(rows), len(e.cols)
	if cap(buf.flat) < n*width {
		buf.flat = make([]float64, n*width)
	}
	if cap(buf.rows) < n {
		buf.rows = make([][]float64, n)
	}
	out := buf.rows[:n]
	for i, row := range rows {
		out[i] = buf.flat[i*width : (i+1)*width : (i+1)*width]
		if err := e.EncodeRowInto(out[i], row); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return out, nil
}

// EncodeRowInto encodes one raw record into dst, which must hold
// NumColumns() elements — the allocation-free form of EncodeRow that
// batch scorers use with reused buffers.
func (e *Encoder) EncodeRowInto(dst []float64, row []Value) error {
	if len(row) != len(e.schema.Fields) {
		return fmt.Errorf("dataset: row has %d values, schema has %d fields", len(row), len(e.schema.Fields))
	}
	if len(dst) != len(e.cols) {
		return fmt.Errorf("dataset: destination has %d slots, encoder has %d columns", len(dst), len(e.cols))
	}
	clear(dst)
	x := dst
	for ci, c := range e.cols {
		v := row[c.field]
		f := e.schema.Fields[c.field]
		switch {
		case c.oneHot:
			if v.Label() == c.category {
				x[ci] = 1
			}
		case f.Kind == Flag:
			if v.Bool() {
				x[ci] = 1
			}
		case f.Kind == Categorical:
			// ForLR numeric-mapped categorical.
			raw, ok := f.NumericLevels[v.Label()]
			if !ok {
				return fmt.Errorf("dataset: field %q: category %q has no numeric mapping", f.Name, v.Label())
			}
			x[ci] = scale(raw, c.min, c.max)
		default:
			x[ci] = scale(v.Float(), c.min, c.max)
		}
	}
	return nil
}

// scale maps raw into [0,1] relative to the training range. Values outside
// the training range map outside [0,1] — deliberately: chronological
// prediction extrapolates to next-year systems, and how each model family
// behaves under extrapolation is part of what the paper measures.
func scale(raw, lo, hi float64) float64 {
	return (raw - lo) / (hi - lo)
}

// Transform encodes a whole dataset into a design matrix X and a target
// vector Y (target scaled iff the mode scales targets). Every row of X is
// a capped view into one flat backing array, as EncodeRows builds it, so
// a Transform makes three allocations whatever the row count.
func (e *Encoder) Transform(d *Dataset) (x [][]float64, y []float64, err error) {
	var buf RowBuffer
	if x, err = e.EncodeRows(&buf, d.Rows(0, d.Len())); err != nil {
		return nil, nil, err
	}
	y = make([]float64, d.Len())
	for i := range y {
		y[i] = e.ScaleTarget(d.Target(i))
	}
	return x, y, nil
}

// ScaleTarget maps a raw target to model space (identity for LR mode).
func (e *Encoder) ScaleTarget(y float64) float64 {
	if !e.scaleY {
		return y
	}
	return (y - e.yMin) / (e.yMax - e.yMin)
}

// UnscaleTarget maps a model-space prediction back to raw target units.
func (e *Encoder) UnscaleTarget(y float64) float64 {
	if !e.scaleY {
		return y
	}
	return y*(e.yMax-e.yMin) + e.yMin
}
