package schema

import (
	"errors"
	"strings"
	"testing"
)

type inner struct {
	N int `json:"n"`
}

type doc struct {
	Name  string   `json:"name"`
	Tags  []string `json:"tags"`
	Rows  []inner  `json:"rows"`
	In    inner    `json:"in"`
	Note  string   `json:"note,omitempty"`
	check error
}

func (d *doc) Check() error { return d.check }

func TestDecode(t *testing.T) {
	const valid = `{"name":"a","tags":["x"],"rows":[{"n":1}],"in":{"n":2}}`
	for _, c := range []struct {
		name, data, wantErr string
	}{
		{"valid", valid, ""},
		{"null slice, omitempty key present", `{"name":"a","tags":null,"rows":[],"in":{"n":0},"note":"b"}`, ""},
		{"document null", `null`, "null"},
		{"missing key", `{"name":"a","tags":[],"rows":[]}`, "in missing"},
		{"missing nested key", `{"name":"a","tags":[],"rows":[{}],"in":{"n":2}}`, "rows[0].n missing"},
		{"null field", `{"name":null,"tags":[],"rows":[],"in":{"n":2}}`, "name is null"},
		{"null string element", `{"name":"a","tags":[null],"rows":[],"in":{"n":2}}`, "tags[0] is null"},
		{"null struct element", `{"name":"a","tags":[],"rows":[null],"in":{"n":2}}`, "rows[0] is null"},
		{"key differs in case", `{"Name":"a","tags":[],"rows":[],"in":{"n":2}}`, "name missing"},
		{"fractional int", `{"name":"a","tags":[],"rows":[],"in":{"n":2.5}}`, "in.n"},
		{"unknown key", `{"name":"a","tags":[],"rows":[],"in":{"n":2},"x":1}`, "unknown field"},
		{"trailing data", valid + ` {}`, "trailing"},
	} {
		err := Decode([]byte(c.data), new(doc))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.wantErr)
		}
	}
	bad := errors.New("invariant broken")
	if err := Decode([]byte(valid), &doc{check: bad}); !errors.Is(err, bad) {
		t.Errorf("Check error not returned: %v", err)
	}
}

// positive is a document whose Check reads a decoded field.
type positive struct {
	N int `json:"n"`
}

func (p *positive) Check() error {
	if p.N <= 0 {
		return errors.New("n must be positive")
	}
	return nil
}

func TestEncode(t *testing.T) {
	data, err := Encode(&positive{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"n\": 2\n}\n"; string(data) != want {
		t.Errorf("Encode = %q, want %q", data, want)
	}
	if _, err := Encode(&positive{N: 0}); err == nil || !strings.Contains(err.Error(), "n must be positive") {
		t.Errorf("document failing Check encoded: %v", err)
	}
}

func TestKind(t *testing.T) {
	for _, c := range []struct {
		data, want string
		ok         bool
	}{
		{`{"kind":"rewrite","seq":0}`, "rewrite", true},
		{`{"id":1,"name":"x"}`, "", true},
		{`{"kind":7}`, "", false},
		{`[1]`, "", false},
		{`not json`, "", false},
	} {
		got, err := Kind([]byte(c.data))
		if got != c.want || (err == nil) != c.ok {
			t.Errorf("Kind(%s) = %q, %v; want %q, ok=%v", c.data, got, err, c.want, c.ok)
		}
	}
}
