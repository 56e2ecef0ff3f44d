package fault

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFaultScenario feeds arbitrary documents through Load, seeded from
// the committed scenarios: bad input is an error, never a panic, and an
// accepted scenario saves (Save) to a document that loads back and
// saves to the same bytes. The documents are compared, not the
// structs: an empty list and an absent one are the same scenario, which
// Load keeps as an empty and a nil slice.
func FuzzFaultScenario(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed scenarios to seed from (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"seed": 7, "links": [], "crashes": []}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		sc, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := Save(&saved, sc); err != nil {
			t.Fatalf("Save of an accepted scenario: %v", err)
		}
		back, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved scenario does not load: %v\n%s", err, saved.Bytes())
		}
		var again bytes.Buffer
		if err := Save(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("scenario does not round-trip:\n%s\nsaves back as\n%s", saved.Bytes(), again.Bytes())
		}
	})
}
