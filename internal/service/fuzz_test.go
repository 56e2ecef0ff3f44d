package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSubmission feeds arbitrary request bodies through readSubmission
// and resolve, as a JSON envelope or as a raw runfile, and runs no
// simulation: malformed input must come back as an error — what the
// handlers answer with HTTP 400 — never a panic, and an accepted one
// must resolve to the same cache key twice. By-name references resolve
// under the committed scenario tree, where the envelope's references
// are confined already. A manifest holding ".." is skipped: it is the
// only way a runfile's paths leave that tree, and it also marks a seed
// range, each seed one more expanded line.
func FuzzSubmission(f *testing.F) {
	envelopes := []string{
		`{"experiment": "9Z"}`,
		`{"experiment": "1", "manifest": "x"}`,
		`{}`,
		`{"experiment": "1", "unknown_field": 1}`,
		`{"experiment": "3A"}`,
		`{"experiment": "1", "until_s": -5}`,
		`{"experiment": "1", "priority": "urgent"}`,
		`{"experiment": "1", "faults": "../../etc/passwd"}`,
		`{"manifest": "experiment\n\"1\", oops\n"}`,
		`{"manifest": ` + jsonString("experiment, frames, label\n\"1\", 5, \"one\"\n\"2A\", 5, \"new\"\n") + `}`,
	}
	for _, sub := range []Submission{
		{Experiment: "1", UntilS: 120},
		{Experiment: "0A", UntilS: 120},
		{Experiment: "3A", UntilS: 120, Governor: "pid"},
		{Experiment: "2C", UntilS: 60},
		{Experiment: "1", UntilS: 7200},
		{Manifest: "experiment, frames, label\n\"1\", 5, \"one\"\n\"2\", 5, \"two\"\n"},
	} {
		b, err := json.Marshal(sub)
		if err != nil {
			f.Fatal(err)
		}
		envelopes = append(envelopes, string(b))
	}
	for _, e := range envelopes {
		f.Add([]byte(e), false)
	}
	f.Add([]byte("experiment, frames\n\"1\", 5\n"), true)
	f.Add([]byte("experiment, frames, label\n\"1\", 5, \"one\"\n\"2\", 5, \"two\"\n"), true)

	s := &Server{cfg: Config{ScenarioDir: filepath.Join("..", "..", "scenarios")}}
	f.Fuzz(func(t *testing.T, body []byte, raw bool) {
		r := httptest.NewRequest(http.MethodPost, "/api/v1/submit", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		if raw {
			r.Header.Set("Content-Type", "application/toml")
		}
		sub, err := readSubmission(r)
		if err != nil {
			return
		}
		if strings.Contains(sub.Manifest, "..") {
			t.Skip("runfile path or seed range")
		}
		res, err := s.resolve(sub)
		if err != nil {
			return
		}
		if !validKey(res.key) || (res.kind == "sweep") != (len(res.exps) > 0) {
			t.Fatalf("accepted submission resolved to key %q, kind %q, %d lines", res.key, res.kind, len(res.exps))
		}
		again, err := s.resolve(sub)
		if err != nil {
			t.Fatalf("resolving again failed: %v", err)
		}
		if again.key != res.key {
			t.Fatalf("resolving again gave key %s, first %s", again.key, res.key)
		}
	})
}
