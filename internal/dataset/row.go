package dataset

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// MaxCategoryLen bounds the length of a categorical label accepted from
// untrusted input (serving requests); schema labels are all far shorter.
const MaxCategoryLen = 256

// RowFromAny validates one decoded JSON feature vector against the
// schema and converts it into a record row. vals must list one value per
// schema field, in field order: JSON numbers (float64 or json.Number)
// for numeric fields, booleans for flags, strings for categoricals.
// Non-finite numbers (NaN, ±Inf — including overflowing json.Number
// literals like 1e999) and type mismatches are rejected with an error
// naming the offending field, so serving decoders can surface precise
// 400s. It is the row validation behind serve.PredictRequest.Resolve,
// the oracle the serving scanner is fuzzed against.
func (s *Schema) RowFromAny(vals []any) ([]Value, error) {
	if len(vals) != len(s.Fields) {
		return nil, fmt.Errorf("dataset: row has %d values, schema has %d fields", len(vals), len(s.Fields))
	}
	row := make([]Value, len(vals))
	for i, f := range s.Fields {
		v := vals[i]
		switch f.Kind {
		case Numeric:
			x, err := numberFromAny(v)
			if err != nil {
				return nil, fmt.Errorf("dataset: field %q: %w", f.Name, err)
			}
			row[i] = Num(x)
		case Flag:
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("dataset: field %q: want a boolean, got %s", f.Name, jsonKind(v))
			}
			row[i] = FlagVal(b)
		case Categorical:
			str, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("dataset: field %q: want a string, got %s", f.Name, jsonKind(v))
			}
			if str == "" {
				return nil, fmt.Errorf("dataset: field %q: empty category", f.Name)
			}
			if len(str) > MaxCategoryLen {
				return nil, fmt.Errorf("dataset: field %q: category longer than %d bytes", f.Name, MaxCategoryLen)
			}
			row[i] = Cat(str)
		default:
			return nil, fmt.Errorf("dataset: field %q has unknown kind %v", f.Name, f.Kind)
		}
	}
	return row, nil
}

// numberFromAny extracts a finite float64 from a decoded JSON value
// (plain float64 or a decoder's json.Number).
func numberFromAny(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("non-finite number %v", x)
		}
		return x, nil
	case json.Number:
		f, err := strconv.ParseFloat(x.String(), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("non-finite or unparseable number %q", x.String())
		}
		return f, nil
	default:
		return 0, fmt.Errorf("want a number, got %s", jsonKind(v))
	}
}

// jsonKind names a decoded JSON value's type for error messages.
func jsonKind(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "a boolean"
	case float64, json.Number:
		return "a number"
	case string:
		return "a string"
	case []any:
		return "an array"
	case map[string]any:
		return "an object"
	default:
		return fmt.Sprintf("%T", v)
	}
}
