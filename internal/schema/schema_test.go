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
