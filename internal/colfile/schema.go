// Package colfile implements the columnar data file format of StreamLake
// table objects (Section IV-B, Figure 5): data organized as row groups in
// a columnar layout for efficient analysis, with footers containing
// per-row-group statistics to support data skipping within the file —
// the reproduction's stand-in for Parquet, built from scratch on the
// standard library.
package colfile

import (
	"fmt"
	"strings"
)

// Type enumerates column types. It is one byte, as every encoding
// stores it.
type Type uint8

const (
	// Int64 is a signed 64-bit integer column.
	Int64 Type = iota
	// Float64 is a 64-bit float column.
	Float64
	// String is a UTF-8 string column.
	String
	// Bool is a boolean column.
	Bool
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("type-%d", int(t))
	}
}

// Field is one named, typed column.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from "name:type" specs, e.g.
// NewSchema("url:string", "start_time:int64").
func NewSchema(specs ...string) (Schema, error) {
	var s Schema
	for _, spec := range specs {
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 || parts[0] == "" {
			return Schema{}, fmt.Errorf("colfile: bad field spec %q", spec)
		}
		var t Type
		switch parts[1] {
		case "int64", "int":
			t = Int64
		case "float64", "float":
			t = Float64
		case "string":
			t = String
		case "bool":
			t = Bool
		default:
			return Schema{}, fmt.Errorf("colfile: unknown type %q in %q", parts[1], spec)
		}
		s.Fields = append(s.Fields, Field{Name: parts[0], Type: t})
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known
// schemas in tests and examples.
func MustSchema(specs ...string) Schema {
	s, err := NewSchema(specs...)
	if err != nil {
		panic(err)
	}
	return s
}

// FieldIndex returns the index of the named field, or -1.
func (s Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// NumFields returns the number of columns.
func (s Schema) NumFields() int { return len(s.Fields) }

// Equal reports whether two schemas match exactly.
func (s Schema) Equal(o Schema) bool {
	if len(s.Fields) != len(o.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

// Value is a dynamically typed cell. Exactly the member matching Type is
// meaningful. The layout is 40 bytes: the string header first, then the
// two words, then Type and Bool sharing the last word's padding.
type Value struct {
	Str   string
	Int   int64
	Float float64
	Type  Type
	Bool  bool
}

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Type: Int64, Int: v} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{Type: Float64, Float: v} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{Type: String, Str: v} }

// BoolValue wraps a bool.
func BoolValue(v bool) Value { return Value{Type: Bool, Bool: v} }

// Compare orders two values of the same type: -1, 0, or +1. Bool orders
// false < true. Comparing across types panics: that is always a schema
// bug upstream.
func Compare(a, b Value) int {
	if a.Type != b.Type {
		panic(fmt.Sprintf("colfile: comparing %v to %v", a.Type, b.Type))
	}
	switch a.Type {
	case Int64:
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
	case Float64:
		switch {
		case a.Float < b.Float:
			return -1
		case a.Float > b.Float:
			return 1
		}
	case String:
		return strings.Compare(a.Str, b.Str)
	case Bool:
		switch {
		case !a.Bool && b.Bool:
			return -1
		case a.Bool && !b.Bool:
			return 1
		}
	}
	return 0
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Type {
	case Int64:
		return fmt.Sprintf("%d", v.Int)
	case Float64:
		return fmt.Sprintf("%g", v.Float)
	case String:
		return v.Str
	case Bool:
		return fmt.Sprintf("%v", v.Bool)
	default:
		return "?"
	}
}

// Row is one record, one Value per schema field.
type Row []Value

// Validate checks a row against the schema.
func (s Schema) Validate(r Row) error {
	if len(r) != len(s.Fields) {
		return fmt.Errorf("colfile: row has %d values, schema has %d fields", len(r), len(s.Fields))
	}
	for i, v := range r {
		if v.Type != s.Fields[i].Type {
			return fmt.Errorf("colfile: field %q: value type %v, want %v",
				s.Fields[i].Name, v.Type, s.Fields[i].Type)
		}
	}
	return nil
}
