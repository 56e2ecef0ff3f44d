package assert

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAssertSpec feeds arbitrary documents through Load, seeded from
// the committed assertion catalogs: bad input is an error, never a
// panic, and an accepted spec re-marshals to a document that loads back
// and marshals to the same bytes. The documents are compared, not the
// structs: an empty "match" list and an absent one are the same spec,
// which Load keeps as an empty and a nil slice.
func FuzzAssertSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "assertions", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed assertion specs to seed from (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"assertions":[{"name":"a","type":"bound","select":{"event":"latency"},"max":1,"match":[]}]}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal of an accepted spec: %v", err)
		}
		back, err := Load(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("marshalled spec does not load: %v\n%s", err, b)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, again) {
			t.Fatalf("spec does not round-trip:\n%s\nmarshals back as\n%s", b, again)
		}
	})
}
