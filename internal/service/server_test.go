package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dvsim/internal/manifest"
)

// newTestServer mounts a Server on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &Client{Base: hs.URL}
}

func submit(t *testing.T, c *Client, sub Submission) (SubmitInfo, []byte) {
	t.Helper()
	var buf bytes.Buffer
	info, err := c.Submit(context.Background(), sub, &buf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return info, buf.Bytes()
}

// TestSubmitMissThenHitMatchesGolden is the service's core promise: a
// cold submission simulates and streams telemetry byte-identical to
// the repository's committed golden, and an identical resubmission
// replays the stored bytes.
func TestSubmitMissThenHitMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "telemetry_1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Config{Workers: 2})
	sub := Submission{Experiment: "1", UntilS: 120}

	cold, coldBytes := submit(t, c, sub)
	if cold.Cache != "miss" {
		t.Fatalf("first submission served from %q, want miss", cold.Cache)
	}
	if !bytes.Equal(coldBytes, golden) {
		t.Fatalf("cold run diverged from golden: %d bytes vs %d", len(coldBytes), len(golden))
	}

	warm, warmBytes := submit(t, c, sub)
	if warm.Cache != "hit" {
		t.Fatalf("second submission served from %q, want hit", warm.Cache)
	}
	if warm.Key != cold.Key {
		t.Fatalf("keys diverged: %s vs %s", warm.Key, cold.Key)
	}
	if !bytes.Equal(warmBytes, golden) {
		t.Fatal("cached replay diverged from golden")
	}

	st := s.Cache().Stats()
	if st.Hits < 1 || st.Misses < 1 || st.Puts != 1 {
		t.Fatalf("cache stats %+v", st)
	}
}

// TestLoadTestHarness: concurrent identical submissions against a warm
// cache each replay the stored bytes, byte-identical to the committed
// golden, and count exactly one hit apiece.
func TestLoadTestHarness(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "telemetry_1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Config{Workers: 2})
	sub := Submission{Experiment: "1", UntilS: 120}
	cold, _ := submit(t, c, sub)
	if cold.Cache != "miss" {
		t.Fatalf("first submission served from %q, want miss", cold.Cache)
	}
	st := s.Cache().Stats()

	const clients = 8
	var wg sync.WaitGroup
	infos := make([]SubmitInfo, clients)
	bodies := make([]bytes.Buffer, clients)
	errs := make([]error, clients)
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			infos[i], errs[i] = c.Submit(context.Background(), sub, &bodies[i])
		}()
	}
	wg.Wait()
	for i := range clients {
		if errs[i] != nil {
			t.Fatalf("concurrent submission %d: %v", i, errs[i])
		}
		if infos[i].Cache != "hit" || infos[i].Key != cold.Key {
			t.Fatalf("concurrent submission %d: cache=%s key=%s, want hit %s", i, infos[i].Cache, infos[i].Key, cold.Key)
		}
		if !bytes.Equal(bodies[i].Bytes(), golden) {
			t.Fatalf("concurrent submission %d diverged from golden: %d bytes vs %d", i, bodies[i].Len(), len(golden))
		}
	}
	after := s.Cache().Stats()
	if after.Hits != st.Hits+clients || after.Misses != st.Misses || after.Puts != st.Puts {
		t.Fatalf("cache stats after %d concurrent hits: %+v, before %+v", clients, after, st)
	}
}

// TestSubmitSweepAggregatesAndReusesLines: a manifest submission
// aggregates server-side exactly like dvsim -manifest, the whole-sweep
// artifact caches, and a different sweep sharing lines pays only for
// the new ones.
func TestSubmitSweepAggregatesAndReusesLines(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	runfile := "experiment, frames, label\n\"1\", 5, \"one\"\n\"2\", 5, \"two\"\n"

	// Local reference through the library path the CLI uses.
	m, err := manifest.Load(strings.NewReader(runfile))
	if err != nil {
		t.Fatal(err)
	}
	exps, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := manifest.CSV(manifest.RunAll(exps, 0))

	cold, coldBytes := submit(t, c, Submission{Manifest: runfile})
	if cold.Cache != "miss" {
		t.Fatalf("cold sweep served from %q", cold.Cache)
	}
	if string(coldBytes) != want {
		t.Fatalf("server aggregation diverged from local run:\n%s\nwant:\n%s", coldBytes, want)
	}
	warm, warmBytes := submit(t, c, Submission{Manifest: runfile})
	if warm.Cache != "hit" || !bytes.Equal(warmBytes, coldBytes) {
		t.Fatalf("warm sweep: cache=%s, identical=%v", warm.Cache, bytes.Equal(warmBytes, coldBytes))
	}

	// A sweep sharing line 1 runs only its new line: job status reports
	// the per-line cache hits.
	shared := "experiment, frames, label\n\"1\", 5, \"one\"\n\"2A\", 5, \"new\"\n"
	resp, err := http.Post(c.Base+"/api/v1/runs", "application/json",
		strings.NewReader(`{"manifest": `+jsonString(shared)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st = waitState(t, s, st.ID, StateDone)
	if st.Lines != 2 || st.LineHits != 1 {
		t.Fatalf("shared sweep: %d lines, %d line hits, want 2 and 1", st.Lines, st.LineHits)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, s *Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("job %s vanished", id)
		}
		st := j.snapshot()
		switch st.State {
		case want:
			return st
		case StateDone, StateFailed, StateCancelled:
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestAsyncCancel: with one worker busy, a queued run cancels cleanly.
func TestAsyncCancel(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	post := func(sub Submission) JobStatus {
		t.Helper()
		body, _ := json.Marshal(sub)
		resp, err := http.Post(c.Base+"/api/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// A's window is big enough to keep the lone worker busy for around
	// a second of wall time, so B is still queued when the cancel lands.
	a := post(Submission{Experiment: "1", UntilS: 7200})
	b := post(Submission{Experiment: "2C", UntilS: 120})
	req, _ := http.NewRequest(http.MethodDelete, c.Base+"/api/v1/runs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	s.mu.Lock()
	jb := s.jobs[b.ID]
	s.mu.Unlock()
	<-jb.done
	if st := jb.snapshot(); st.State != StateCancelled {
		t.Fatalf("cancelled job state %s (%s)", st.State, st.Error)
	}
	// The busy worker's job is unaffected.
	s.mu.Lock()
	ja := s.jobs[a.ID]
	s.mu.Unlock()
	<-ja.done
	if st := ja.snapshot(); st.State != StateDone {
		t.Fatalf("surviving job state %s (%s)", st.State, st.Error)
	}
	// The cancelled run's result endpoint reports the loss.
	r2, err := http.Get(c.Base + "/api/v1/runs/" + b.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusGone {
		t.Fatalf("cancelled result status %d, want %d", r2.StatusCode, http.StatusGone)
	}
}

// TestSubmitValidation: malformed submissions are client errors.
func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{"experiment": "9Z"}`,
		`{"experiment": "1", "manifest": "x"}`,
		`{}`,
		`{"experiment": "1", "unknown_field": 1}`,
		`{"experiment": "3A"}`,
		`{"experiment": "1", "until_s": -5}`,
		`{"experiment": "1", "priority": "urgent"}`,
		`{"experiment": "1", "faults": "../../etc/passwd"}`,
		`{"manifest": "experiment\n\"1\", oops\n"}`,
		// Past the runfile's expansion limit: refused before any seed
		// is allocated.
		`{"manifest": "experiment, seeds\n\"2D\", \"0..999999\"\n"}`,
	}
	for _, body := range cases {
		resp, err := http.Post(c.Base+"/api/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submission %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRunfilePathsConfined: a submitted runfile's platform, faults and
// assert references obey the envelope's scenario-root rule, so none of
// them reaches a file outside the root, and with no root none resolves
// at all. A reference inside the root still loads.
func TestRunfilePathsConfined(t *testing.T) {
	runfiles := map[string]string{
		"platform": "platform = \"../go.mod\"\nexperiment, frames\n\"1\", 5\n",
		"faults":   "experiment, frames, faults\n\"2\", 5, \"../go.mod\"\n",
		"assert":   "experiment, frames, assert\n\"1\", 5, \"../go.mod\"\n",
	}
	for _, root := range []string{"", filepath.Join("..", "..", "scenarios")} {
		_, c := newTestServer(t, Config{Workers: 1, ScenarioDir: root})
		for key, runfile := range runfiles {
			code, body := postSubmit(t, c, Submission{Manifest: runfile})
			if code != http.StatusBadRequest || !strings.Contains(string(body), "scenario root") {
				t.Errorf("root %q, %s \"../go.mod\": HTTP %d %s, want 400 naming the scenario root", root, key, code, bytes.TrimSpace(body))
			}
		}
		if root == "" {
			continue
		}
		inside := "experiment, frames, faults, assert\n\"2\", 5, \"linkdrop.json\", \"assertions/catalog.json\"\n"
		if code, body := postSubmit(t, c, Submission{Manifest: inside}); code != http.StatusOK {
			t.Errorf("references inside the root: HTTP %d %s", code, body)
		}
	}
}

// TestRawRunfileSubmission: a non-JSON body is runfile text, so a
// runfile can be piped over HTTP without an envelope.
func TestRawRunfileSubmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	runfile := "experiment, frames\n\"1\", 5\n"
	resp, err := http.Post(c.Base+"/api/v1/submit", "application/toml", strings.NewReader(runfile))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw runfile status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.HasPrefix(buf.String(), "index,line,label") {
		t.Fatalf("raw runfile response is not the aggregated CSV:\n%.100s", buf.String())
	}
}

// TestVersionAndStats: the identification and accounting endpoints.
func TestVersionAndStats(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Engine == "" || !strings.HasPrefix(v.Version, v.Engine) {
		t.Fatalf("version %+v", v)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 || st.Requests < 1 {
		t.Fatalf("stats %+v", st)
	}
	resp, err := http.Get(c.Base + "/api/v1/stats?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"type,name,node,value", "counter,service_requests", "gauge,service_workers"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("stats CSV missing %q:\n%s", want, buf.String())
		}
	}
}

// TestGracefulDrain: Close finishes the queued backlog before workers
// exit, and later submissions are refused.
func TestGracefulDrain(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(Submission{Experiment: "1", UntilS: 60})
	resp, err := http.Post(c.Base+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	s.Close()

	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	if got := j.snapshot(); got.State != StateDone {
		t.Fatalf("job after drain: %s (%s)", got.State, got.Error)
	}
	var buf bytes.Buffer
	if _, err := c.Submit(context.Background(), Submission{Experiment: "2C", UntilS: 60}, &buf); err == nil {
		t.Fatal("submission accepted after Close")
	}
}

// postSubmit sends a raw synchronous submission and returns the HTTP
// status with the response body.
func postSubmit(t *testing.T, c *Client, sub Submission) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.Base+"/api/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// eventCounts tallies a telemetry artifact's records by event kind.
func eventCounts(t *testing.T, log []byte) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		var r struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		counts[r.Event]++
	}
	return counts
}

// TestSubmitAcceptedExperimentsRun: every experiment the envelope
// accepts produces telemetry — the no-I/O 0A (mode and sample records,
// no host results) and the single-policy governor study 3A (govern
// records) included.
func TestSubmitAcceptedExperimentsRun(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})

	status, log := postSubmit(t, c, Submission{Experiment: "0A", UntilS: 120})
	if status != http.StatusOK {
		t.Fatalf("0A: HTTP %d: %s", status, log)
	}
	if n := eventCounts(t, log); n["mode"] == 0 || n["sample"] == 0 || n["result"] != 0 {
		t.Fatalf("0A telemetry counts %v, want mode and sample records and no results", n)
	}

	status, log = postSubmit(t, c, Submission{Experiment: "3A", UntilS: 120, Governor: "pid"})
	if status != http.StatusOK {
		t.Fatalf("3A: HTTP %d: %s", status, log)
	}
	if n := eventCounts(t, log); n["govern"] == 0 {
		t.Fatalf("3A telemetry counts %v, want govern records", n)
	}
}
