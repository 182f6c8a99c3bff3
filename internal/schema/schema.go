// Package schema strictly decodes the JSON reports the audit commands emit
// and the BENCH_*.json artifacts the benchmarks emit: the effect audit of
// the §3.1 replayability analysis, the range and alias audits of the
// analyses that shrink the §3.4 verification map, the translation-validation
// audit, the snapshot-store reports of §3.2 step 6, and every benchmark
// artifact cmd/benchlint checks, and the records of the rewrite and span
// traces and the policy lock. Each format is declared once, by the json tags
// of its Go struct; Decode enforces those tags and the struct's own Check
// enforces the invariants that span fields. Encode is the matching writer:
// every emitter checks its own bytes through Decode before they leave it.
package schema

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Checker is a decoded document that can check its cross-field invariants.
type Checker interface {
	Check() error
}

// Decode decodes exactly one JSON document into v, a pointer to a struct,
// and then runs v.Check. Beyond encoding/json it rejects unknown keys,
// trailing data, a missing key for any field whose tag lacks omitempty, and
// null for any field or array element that is not itself a slice. Nested
// structs and slice elements are held to the same rules.
func Decode(data []byte, v Checker) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			return fmt.Errorf("%s: %s where %s belongs", te.Field, te.Value, te.Type)
		}
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the document")
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		return err
	}
	if tree == nil {
		return errors.New("document is null")
	}
	if err := present(reflect.TypeOf(v).Elem(), tree, ""); err != nil {
		return err
	}
	return v.Check()
}

// Encode marshals doc with a two-space indent and a trailing newline, then
// strictly decodes those bytes into a fresh value of doc's type and runs its
// Check, so an emitter never writes a document its own readers would reject.
func Encode(doc Checker) ([]byte, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := Decode(data, reflect.New(reflect.TypeOf(doc).Elem()).Interface().(Checker)); err != nil {
		return nil, fmt.Errorf("emitted document fails its own schema: %w", err)
	}
	return append(data, '\n'), nil
}

// Kind returns the "kind" member of a JSON object, the discriminator of a
// stream whose lines hold records of several types, so the caller can pick
// the struct to Decode the line into. An object without one yields "".
func Kind(data []byte) (string, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", err
	}
	return probe.Kind, nil
}

// present walks the generic decoding of a document alongside the Go type it
// decoded into, requiring every non-omitempty key and rejecting null where
// encoding/json would silently leave a zero value.
func present(t reflect.Type, val any, path string) error {
	switch t.Kind() {
	case reflect.Struct:
		obj, ok := val.(map[string]any)
		if !ok {
			return fmt.Errorf("%s is not an object", path)
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || name == "-" {
				continue
			}
			if name == "" {
				name = f.Name
			}
			p := name
			if path != "" {
				p = path + "." + name
			}
			fv, ok := obj[name]
			switch {
			case !ok && strings.Contains(opts, "omitempty"):
				continue
			case !ok:
				return fmt.Errorf("%s missing", p)
			case fv == nil && f.Type.Kind() != reflect.Slice:
				return fmt.Errorf("%s is null", p)
			}
			if err := present(f.Type, fv, p); err != nil {
				return err
			}
		}
	case reflect.Slice:
		arr, _ := val.([]any)
		for i, el := range arr {
			p := fmt.Sprintf("%s[%d]", path, i)
			if el == nil && t.Elem().Kind() != reflect.Slice {
				return fmt.Errorf("%s is null", p)
			}
			if err := present(t.Elem(), el, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Unique rejects rows in which two elements share a key: a consumer that
// indexes the rows by key would silently keep only the last of them.
func Unique[T any, K comparable](field string, rows []T, key func(T) K) error {
	seen := make(map[K]bool, len(rows))
	for i, r := range rows {
		k := key(r)
		if seen[k] {
			return fmt.Errorf("%s[%d]: duplicate %v", field, i, k)
		}
		seen[k] = true
	}
	return nil
}
