package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// TestOutputParity pins salint's -all output, human and JSON, to SHA-256
// digests of what the three single-analysis commands it folds together
// printed for their app lists. effects and range now also cover
// ScratchFilter; its document, the only new output, is split off the end
// before hashing. -json checks every document against its strict schema
// before writing it, so every app's real report must also pass it.
func TestOutputParity(t *testing.T) {
	for _, c := range []struct {
		sub     string
		json    bool
		scratch bool // ScratchFilter's document is new output
		digest  string
	}{
		{"effects", false, true, "e61725c73dcc4f5849f6375e98e0edc024e03f6a655570f6415cd3f3972a5362"},
		{"effects", true, true, "107b010af7ce58067b7be33b0082f9a02c88ae3bc1f481d22aedd033d2bc9f29"},
		{"range", false, true, "2e92be4da48ea68e45694e97b50d342874ad14075f85d6739b94acad8b10c0f0"},
		{"range", true, true, "125a4279b3dcac42f2dd14e1aedadfd635f8cee5ca0fbbb236bb9ebf72691030"},
		{"alias", false, false, "db1e98d493b5d2d31ec9e118740292fe71cb67684d5a894c726d790e426eba3d"},
		{"alias", true, false, "cb358b55037b2b73ce2876288deac0b05578dfa855dd0c39dd735632ec3ab6d6"},
	} {
		args := []string{c.sub, "-all"}
		if c.json {
			args = append(args, "-json")
		}
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			t.Parallel()
			var out, errs bytes.Buffer
			if code := salint(args, &out, &errs); code != 0 {
				t.Fatalf("exit %d: %s", code, errs.String())
			}
			got := out.Bytes()
			if c.scratch {
				got = dropScratch(t, got, c.json)
			}
			sum := sha256.Sum256(got)
			if d := hex.EncodeToString(sum[:]); d != c.digest {
				t.Errorf("output digest %s, want %s", d, c.digest)
			}
		})
	}
}

// dropScratch strips the trailing ScratchFilter document from an -all run,
// failing if the output does not end with one.
func dropScratch(t *testing.T, out []byte, isJSON bool) []byte {
	t.Helper()
	if isJSON {
		i := bytes.LastIndex(out, []byte("\n{\n"))
		var doc struct{ App string }
		if i < 0 || json.Unmarshal(out[i+1:], &doc) != nil || doc.App != "ScratchFilter" {
			t.Fatal("JSON output does not end with a ScratchFilter document")
		}
		return out[:i+1]
	}
	i := bytes.LastIndexByte(out[:len(out)-1], '\n')
	if !bytes.HasPrefix(out[i+1:], []byte("ScratchFilter: ")) {
		t.Fatal("human output does not end with a ScratchFilter line")
	}
	return out[:i+1]
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"effects"},
		{"range", "-app", "NoSuchApp"},
		{"effects", "-nosuchflag"},
	} {
		if code := salint(args, new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
			t.Errorf("salint %q: exit %d, want 2", args, code)
		}
	}
}
