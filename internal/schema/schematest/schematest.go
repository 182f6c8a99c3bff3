// Package schematest builds rejection corpora for the strictly decoded
// report formats of package schema — the §3.1 effect audit, the range and
// alias audits behind the §3.4 verification map, the translation-validation
// audit, and the §3.2 snapshot-store reports — so every schema package can
// assert that its validator rejects the same corruptions with one
// table-driven test.
package schematest

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Case is one corrupted copy of a valid document.
type Case struct {
	Name string
	Data []byte
}

// Corrupt returns a copy of the valid document with mutate applied to its
// generic decoding.
func Corrupt(tb testing.TB, valid []byte, name string, mutate func(doc map[string]any)) Case {
	tb.Helper()
	var doc map[string]any
	if err := json.Unmarshal(valid, &doc); err != nil {
		tb.Fatal(err)
	}
	mutate(doc)
	data, err := json.Marshal(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return Case{Name: name, Data: data}
}

// Corpus derives two families of cases from the valid document, whose Go
// type is typ: one copy per required key with that key deleted, and one copy
// per field with its value replaced by a value of another JSON type. Arrays
// are covered through their first element, so the valid document should
// hold at least one element in every array it wants covered.
func Corpus(tb testing.TB, valid []byte, typ reflect.Type) []Case {
	tb.Helper()
	var doc any
	if err := json.Unmarshal(valid, &doc); err != nil {
		tb.Fatal(err)
	}
	var cases []Case
	edit := func(name string, path []any, f func(parent any, key any)) {
		cases = append(cases, Corrupt(tb, valid, label(path)+" "+name, func(doc map[string]any) {
			var parent any = doc
			for _, k := range path[:len(path)-1] {
				parent = child(parent, k)
			}
			f(parent, path[len(path)-1])
		}))
	}
	retype := func(path []any, t reflect.Type) {
		edit("wrong type", path, func(parent, key any) {
			if i, ok := key.(int); ok {
				parent.([]any)[i] = wrongType(t)
			} else {
				parent.(map[string]any)[key.(string)] = wrongType(t)
			}
		})
	}
	var walk func(t reflect.Type, val any, path []any)
	walk = func(t reflect.Type, val any, path []any) {
		switch t.Kind() {
		case reflect.Struct:
			obj := val.(map[string]any)
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
				fv, ok := obj[name]
				if !ok {
					continue
				}
				p := append(path[:len(path):len(path)], name)
				if !strings.Contains(opts, "omitempty") {
					edit("deleted", p, func(parent, key any) { delete(parent.(map[string]any), key.(string)) })
				}
				retype(p, f.Type)
				walk(f.Type, fv, p)
			}
		case reflect.Slice:
			if arr, _ := val.([]any); len(arr) > 0 {
				p := append(path[:len(path):len(path)], 0)
				retype(p, t.Elem())
				walk(t.Elem(), arr[0], p)
			}
		}
	}
	walk(typ, doc, nil)
	return cases
}

// Run asserts that validate rejects every case. newRejections names the
// cases the validator this corpus was first recorded against accepted, each
// with the reason the rejection is new; every name must belong to a case, so
// the record cannot drift from the corpus.
func Run(t *testing.T, validate func([]byte) error, cases []Case, newRejections map[string]string) {
	t.Helper()
	names := map[string]bool{}
	for _, c := range cases {
		names[c.Name] = true
		if validate(c.Data) == nil {
			t.Errorf("%s: corrupted document accepted", c.Name)
		}
	}
	for name := range newRejections { //detlint:allow map-range — error reporting only
		if !names[name] {
			t.Errorf("new rejection %q names no corpus case", name)
		}
	}
}

func child(v any, key any) any {
	if i, ok := key.(int); ok {
		return v.([]any)[i]
	}
	return v.(map[string]any)[key.(string)]
}

func label(path []any) string {
	var b strings.Builder
	for _, k := range path {
		if i, ok := k.(int); ok {
			fmt.Fprintf(&b, "[%d]", i)
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(k.(string))
	}
	return b.String()
}

// wrongType returns a JSON value whose type differs from the one t encodes
// to.
func wrongType(t reflect.Type) any {
	switch t.Kind() {
	case reflect.String:
		return 7
	case reflect.Slice:
		return map[string]any{}
	case reflect.Struct:
		return []any{}
	}
	return "7"
}
