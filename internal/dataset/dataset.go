// Package dataset implements the data-preparation layer of the framework
// (paper §3.4). It mirrors the documented behaviour of the SPSS Clementine
// pipeline the paper used:
//
//   - every input is scaled to the 0–1 range before modeling,
//   - neural networks accept numeric, flag and categorical ("set") fields —
//     categoricals are one-hot encoded,
//   - linear regression accepts only numeric inputs — categorical fields
//     with a declared numeric mapping are coerced, the rest are omitted,
//   - fields with no variation in the training data are dropped.
//
// A Dataset is a typed table of records plus a numeric target (cycles for
// the simulation study, the SPEC rating for the chronological study). An
// Encoder is fitted on training data and can then transform any dataset
// with the same schema, which is what keeps train/test encodings coherent.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
)

// FieldKind describes how a field's values are typed, following the
// Clementine field model.
type FieldKind int

const (
	// Numeric fields hold continuous or ordered numeric values.
	Numeric FieldKind = iota
	// Flag fields hold booleans (Clementine "flag", e.g. SMT yes/no).
	Flag
	// Categorical fields hold unordered symbolic values (Clementine "set",
	// e.g. the branch-predictor kind or the hard-drive type).
	Categorical
)

// String returns the field kind name.
func (k FieldKind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Flag:
		return "flag"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("FieldKind(%d)", int(k))
	}
}

// Field describes one input parameter of a record.
type Field struct {
	Name string
	Kind FieldKind
	// NumericLevels optionally maps category labels of a Categorical field
	// to numbers, making the field usable by linear regression (paper §3.4:
	// "some of the inputs ... need to be mapped to numeric values").
	// Categorical fields without such a mapping are omitted from LR inputs.
	NumericLevels map[string]float64
}

// Schema lists the input fields of a dataset, in column order, and names
// the output measure.
type Schema struct {
	Fields []Field
	// Target names the response variable (e.g. "cycles" or "SPECint_rate").
	Target string
}

// NewSchema returns a schema over the given fields. Field names must be
// unique and non-empty.
func NewSchema(target string, fields ...Field) (*Schema, error) {
	if target == "" {
		return nil, errors.New("dataset: empty target name")
	}
	seen := map[string]bool{}
	for _, f := range fields {
		if f.Name == "" {
			return nil, errors.New("dataset: empty field name")
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("dataset: duplicate field %q", f.Name)
		}
		seen[f.Name] = true
	}
	cp := append([]Field(nil), fields...)
	return &Schema{Fields: cp, Target: target}, nil
}

// FieldIndex returns the column index of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Value is a tagged union holding one cell of a record.
type Value struct {
	kind FieldKind
	num  float64
	str  string
	flag bool
}

// Num returns a numeric value.
func Num(x float64) Value { return Value{kind: Numeric, num: x} }

// FlagVal returns a flag value.
func FlagVal(b bool) Value { return Value{kind: Flag, flag: b} }

// Cat returns a categorical value.
func Cat(s string) Value { return Value{kind: Categorical, str: s} }

// Kind returns the value's kind.
func (v Value) Kind() FieldKind { return v.kind }

// Float returns the numeric payload; valid only for Numeric values.
func (v Value) Float() float64 { return v.num }

// Bool returns the flag payload; valid only for Flag values.
func (v Value) Bool() bool { return v.flag }

// Label returns the category label; valid only for Categorical values.
func (v Value) Label() string { return v.str }

// String renders the value for CSV export and debugging.
func (v Value) String() string {
	switch v.kind {
	case Numeric:
		return fmt.Sprintf("%g", v.num)
	case Flag:
		if v.flag {
			return "yes"
		}
		return "no"
	case Categorical:
		return v.str
	default:
		return "?"
	}
}

// Dataset is a typed table of records with a numeric target per record.
type Dataset struct {
	schema  *Schema
	rows    [][]Value
	targets []float64
}

// New returns an empty dataset over the schema.
func New(schema *Schema) *Dataset {
	return &Dataset{schema: schema}
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.rows) }

// Append adds one record. The row must match the schema's arity and kinds.
func (d *Dataset) Append(row []Value, target float64) error {
	if len(row) != len(d.schema.Fields) {
		return fmt.Errorf("dataset: row has %d values, schema has %d fields", len(row), len(d.schema.Fields))
	}
	for i, v := range row {
		if v.kind != d.schema.Fields[i].Kind {
			return fmt.Errorf("dataset: field %q: value kind %v does not match schema kind %v",
				d.schema.Fields[i].Name, v.kind, d.schema.Fields[i].Kind)
		}
	}
	d.rows = append(d.rows, append([]Value(nil), row...))
	d.targets = append(d.targets, target)
	return nil
}

// Row returns the i-th record (not a copy; treat as read-only).
func (d *Dataset) Row(i int) []Value { return d.rows[i] }

// Rows returns records [lo,hi) (not copies; treat as read-only).
func (d *Dataset) Rows(lo, hi int) [][]Value { return d.rows[lo:hi:hi] }

// Target returns the i-th record's target value.
func (d *Dataset) Target(i int) float64 { return d.targets[i] }

// Targets returns a copy of all target values.
func (d *Dataset) Targets() []float64 {
	return append([]float64(nil), d.targets...)
}

// Subset returns a new dataset with the records at the given indices, in
// that order. Rows are shared, not copied.
func (d *Dataset) Subset(idx []int) (*Dataset, error) {
	out := New(d.schema)
	out.rows = make([][]Value, 0, len(idx))
	out.targets = make([]float64, 0, len(idx))
	for _, i := range idx {
		if i < 0 || i >= len(d.rows) {
			return nil, fmt.Errorf("dataset: subset index %d out of range [0,%d)", i, len(d.rows))
		}
		out.rows = append(out.rows, d.rows[i])
		out.targets = append(out.targets, d.targets[i])
	}
	return out, nil
}

// SampleFraction returns a random sample containing ceil(frac*n) records
// (at least 1 when the dataset is non-empty) and the indices it chose.
// This is the paper's "randomly sampling 1% to 5% of the data" step.
func (d *Dataset) SampleFraction(r *rand.Rand, frac float64) (*Dataset, []int, error) {
	if frac <= 0 || frac > 1 {
		return nil, nil, fmt.Errorf("dataset: sample fraction %v out of (0,1]", frac)
	}
	n := d.Len()
	if n == 0 {
		return nil, nil, errors.New("dataset: sampling from empty dataset")
	}
	k := int(float64(n)*frac + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	idx := r.Perm(n)[:k]
	sub, err := d.Subset(idx)
	return sub, idx, err
}

// Complement returns the records NOT at the given indices, in original
// dataset order, plus their indices. Rows are shared, not copied. It is
// the counterpart of SampleFraction: the sample's complement is the
// unlabeled pool an active-learning loop draws from. Out-of-range
// indices are rejected; duplicates in idx are tolerated (each row is
// excluded at most once).
func (d *Dataset) Complement(idx []int) (*Dataset, []int, error) {
	n := d.Len()
	taken := make([]bool, n)
	for _, i := range idx {
		if i < 0 || i >= n {
			return nil, nil, fmt.Errorf("dataset: complement index %d out of range [0,%d)", i, n)
		}
		taken[i] = true
	}
	rest := make([]int, 0, n-len(idx))
	for i := 0; i < n; i++ {
		if !taken[i] {
			rest = append(rest, i)
		}
	}
	sub, err := d.Subset(rest)
	if err != nil {
		return nil, nil, err
	}
	return sub, rest, nil
}

// SplitHalf randomly partitions the dataset into two halves (sizes n/2 and
// n-n/2). Clementine's model-building step "randomly divides the training
// data into two equal sets, using half of the data to train the model and
// the other half to simulate" (paper §3.3).
func (d *Dataset) SplitHalf(r *rand.Rand) (train, test *Dataset, err error) {
	n := d.Len()
	if n < 2 {
		return nil, nil, errors.New("dataset: need at least 2 records to split")
	}
	p := r.Perm(n)
	h := n / 2
	train, err = d.Subset(p[:h])
	if err != nil {
		return nil, nil, err
	}
	test, err = d.Subset(p[h:])
	return train, test, err
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := New(d.schema)
	out.rows = make([][]Value, len(d.rows))
	for i, r := range d.rows {
		out.rows[i] = append([]Value(nil), r...)
	}
	out.targets = append([]float64(nil), d.targets...)
	return out
}
