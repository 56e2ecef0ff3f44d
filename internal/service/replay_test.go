package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dvsim/internal/sweep"
)

func readGolden(t *testing.T) []byte {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "telemetry_1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// stores runs f on a disk-backed and on a memory-only server config.
func stores(t *testing.T, cfg Config, f func(t *testing.T, cfg Config)) {
	for _, disk := range []bool{true, false} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			if disk {
				cfg.CacheDir = t.TempDir()
			}
			f(t, cfg)
		})
	}
}

// lookups is the part of the cache counters a replay must not move.
func lookups(st CacheStats) [2]uint64 { return [2]uint64{st.Hits, st.Misses} }

// postRun submits asynchronously and returns the job status with the
// X-Dvsim-Cache verdict. The status's ID must be its cache key.
func postRun(t *testing.T, c *Client, sub Submission) (JobStatus, string) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.Base+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != st.Key {
		t.Errorf("run ID %s, key %s; want the key as ID", st.ID, st.Key)
	}
	return st, resp.Header.Get("X-Dvsim-Cache")
}

// getBody fetches a URL and returns its status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.Bytes()
}

// TestFinishedJobsReplayGoldenBytes: a finished job holds no bytes, so
// the /stream and /result of a done run — reached again by its async
// hit, and on a restarted disk-backed server by the status-only entry
// a hit records — replay the stored artifact, byte-identical to the
// golden and counted as neither a hit nor a miss.
func TestFinishedJobsReplayGoldenBytes(t *testing.T) {
	golden := readGolden(t)
	stores(t, Config{Workers: 2}, func(t *testing.T, cfg Config) {
		s, c := newTestServer(t, cfg)
		sub := Submission{Experiment: "1", UntilS: 120}
		miss, verdict := postRun(t, c, sub)
		if verdict != "miss" {
			t.Fatalf("first submission served from %q, want miss", verdict)
		}
		waitState(t, s, miss.ID, StateDone)
		servers := []*Server{s}
		clients := []*Client{c}
		if cfg.CacheDir != "" {
			s2, c2 := newTestServer(t, cfg)
			servers, clients = append(servers, s2), append(clients, c2)
		}
		for i, s := range servers {
			c := clients[i]
			hit, verdict := postRun(t, c, sub)
			if verdict != "hit" || hit.State != StateDone || hit.ID != miss.ID {
				t.Fatalf("server %d: %q, state %s, ID %s; want a done hit under %s", i, verdict, hit.State, hit.ID, miss.ID)
			}
			s.mu.Lock()
			j := s.runs[hit.ID]
			s.mu.Unlock()
			if holdsRun(j) {
				t.Errorf("server %d: done job still holds its stream, run or context", i)
			}
			before := s.cache.Stats()
			for _, ep := range []string{"stream", "result"} {
				code, b := getBody(t, c.Base+"/api/v1/runs/"+hit.ID+"/"+ep)
				if code != http.StatusOK || !bytes.Equal(b, golden) {
					t.Errorf("server %d /%s: HTTP %d, %d bytes; want the %d golden bytes", i, ep, code, len(b), len(golden))
				}
			}
			if after := s.cache.Stats(); lookups(after) != lookups(before) {
				t.Errorf("server %d: replays moved the hit/miss counters: %+v, then %+v", i, before, after)
			}
		}
	})
}

// holdsRun reports whether j still holds its stream, run or context.
func holdsRun(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stream != nil || j.run != nil || j.ctx != nil || j.cancel != nil
}

// queueRun queues a job under key that runs run, entered in the run
// table as a submission's job is.
func queueRun(t *testing.T, s *Server, key string, run func(context.Context, *job) error) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.enqueueLocked(&resolved{key: key, kind: "run"}, run)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// holdWorker queues a job that occupies a worker until release is
// called and then ends with err, so the jobs queued behind it stay
// queued for as long as a test needs.
func holdWorker(t *testing.T, s *Server, err error) (blocker *job, release func()) {
	t.Helper()
	gate := make(chan struct{})
	blocker = queueRun(t, s, testKey("blocker"), func(context.Context, *job) error {
		<-gate
		return err
	})
	return blocker, func() { close(gate) }
}

// TestLateCoalescedFollowerGetsGoldenBytes: a request that joined a run
// while it was queued, and attaches only once the run has finished and
// dropped its stream, replays the stored artifact byte-identical to the
// golden, and the replay counts as neither a hit nor a miss.
func TestLateCoalescedFollowerGetsGoldenBytes(t *testing.T) {
	golden := readGolden(t)
	stores(t, Config{Workers: 1}, func(t *testing.T, cfg Config) {
		s, _ := newTestServer(t, cfg)
		// Hold the lone worker so the run stays queued while the
		// follower joins it.
		_, release := holdWorker(t, s, errors.New("held"))
		res, err := s.resolve(Submission{Experiment: "1", UntilS: 120})
		if err != nil {
			t.Fatal(err)
		}
		_, j, _, err := s.lookup(res)
		if err != nil {
			t.Fatal(err)
		}
		_, follower, coalesced, err := s.lookup(res)
		if err != nil || !coalesced || follower != j {
			t.Fatalf("second lookup: coalesced %v onto the run: %v (%v)", coalesced, follower == j, err)
		}
		release()
		<-j.done
		if st := j.snapshot(); st.State != StateDone || j.live() != nil {
			t.Fatalf("run ended %s (%s), stream kept: %v", st.State, st.Error, j.live() != nil)
		}
		before := s.cache.Stats()
		var b bytes.Buffer
		if _, err := s.send(&b, follower); err != nil || !bytes.Equal(b.Bytes(), golden) {
			t.Fatalf("late follower got %d bytes (%v), want the %d golden bytes", b.Len(), err, len(golden))
		}
		if after := s.cache.Stats(); lookups(after) != lookups(before) {
			t.Errorf("the replay moved the hit/miss counters: %+v, then %+v", before, after)
		}
	})
}

// liveHeap returns the bytes the heap holds after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// settle closes tr's idle connections and fails the test unless the
// goroutine count falls back to baseline.
func settle(t *testing.T, tr *http.Transport, baseline int, load string) {
	t.Helper()
	tr.CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > baseline {
		t.Errorf("%d goroutines after %s, %d before", n, load, baseline)
	}
}

// TestDistinctMissesHoldNoBytes: a disk-backed server that has answered
// distinct misses keeps none of their bytes — none in the memory layer,
// no heap growth from 4 to 16 misses as large as one artifact — and no
// goroutine outlives the requests.
func TestDistinctMissesHoldNoBytes(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	tr := &http.Transport{}
	c.HTTP = &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()
	var size int
	miss := func(i int) {
		info, b := submit(t, c, Submission{Experiment: "1", UntilS: 1800 + float64(i)})
		if info.Cache != "miss" {
			t.Fatalf("submission %d served from %q, want miss", i, info.Cache)
		}
		size = max(size, len(b))
	}
	for i := range 4 {
		miss(i)
	}
	h4 := liveHeap()
	for i := 4; i < 16; i++ {
		miss(i)
	}
	h16 := liveHeap()
	t.Logf("live heap %d bytes after 4 misses, %d after 16; an artifact is %d", h4, h16, size)
	if h16 > h4 && h16-h4 >= uint64(size) {
		t.Errorf("live heap grew %d bytes from 4 to 16 misses, an artifact is %d", h16-h4, size)
	}
	if cs := s.cache.Stats(); cs.MemBytes != 0 || cs.Misses != 16 || cs.Puts != 16 {
		t.Errorf("cache stats %+v, want 16 misses and puts and no bytes in memory", cs)
	}
	if st := s.stats(); st.Jobs != 16 {
		t.Errorf("%d jobs, want 16", st.Jobs)
	}
	settle(t, tr, baseline, "the requests")
}

// deleteRun cancels a run through the API and returns the HTTP status.
func deleteRun(t *testing.T, c *Client, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, c.Base+"/api/v1/runs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRunTableHoldsNoBytes: the run table grows with distinct keys, not
// with submissions, and a finished run of any state keeps no bytes.
// Sixteen async resubmissions and hits of one key leave one entry.
// Sixteen distinct runs that each write a 1 MB partial artifact and
// then fail, or are cancelled by DELETE, leave less live heap growth
// than one such artifact, and every finished job without its stream,
// run or context. After each kind of load no goroutine is left over.
func TestRunTableHoldsNoBytes(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	tr := http.DefaultTransport.(*http.Transport)
	baseline := runtime.NumGoroutine()

	sub := Submission{Experiment: "1", UntilS: 120}
	first, _ := postRun(t, c, sub)
	for i := range 16 {
		if i == 8 {
			waitState(t, s, first.ID, StateDone)
		}
		if st, verdict := postRun(t, c, sub); st.ID != first.ID {
			t.Fatalf("resubmission %d (%s): ID %s, want %s", i, verdict, st.ID, first.ID)
		}
	}
	if st := s.stats(); st.Jobs != 1 {
		t.Errorf("%d jobs after 17 submissions of one key, want 1", st.Jobs)
	}
	settle(t, tr, baseline, "the hits")

	partial := make([]byte, 1<<20)
	for _, load := range []struct {
		name  string
		state string
		run   func(t *testing.T, i int) *job
	}{
		{"failing runs", StateFailed, func(t *testing.T, i int) *job {
			j := queueRun(t, s, testKey(fmt.Sprintf("fail%d", i)), func(_ context.Context, j *job) error {
				j.stream.Write(partial)
				return errors.New("failed after a partial artifact")
			})
			<-j.done
			return j
		}},
		{"cancelled runs", StateCancelled, func(t *testing.T, i int) *job {
			wrote := make(chan struct{})
			j := queueRun(t, s, testKey(fmt.Sprintf("cancel%d", i)), func(ctx context.Context, j *job) error {
				j.stream.Write(partial)
				close(wrote)
				<-ctx.Done()
				return ctx.Err()
			})
			<-wrote
			if code := deleteRun(t, c, j.key); code != http.StatusOK {
				t.Fatalf("DELETE run %d: HTTP %d", i, code)
			}
			<-j.done
			return j
		}},
	} {
		before := liveHeap()
		for i := range 16 {
			j := load.run(t, i)
			if st := j.snapshot(); st.State != load.state {
				t.Fatalf("%s: run %d ended %s (%s), want %s", load.name, i, st.State, st.Error, load.state)
			}
			if holdsRun(j) {
				t.Errorf("%s: finished run %d still holds its stream, run or context", load.name, i)
			}
		}
		after := liveHeap()
		t.Logf("%s: live heap %d bytes before, %d after", load.name, before, after)
		if after > before && after-before >= uint64(len(partial)) {
			t.Errorf("%s: live heap grew %d bytes over 16 runs, a partial artifact is %d", load.name, after-before, len(partial))
		}
		settle(t, tr, baseline, load.name)
	}

	var list []JobStatus
	if code, b := getBody(t, c.Base+"/api/v1/runs"); code != http.StatusOK || json.Unmarshal(b, &list) != nil {
		t.Fatalf("GET /api/v1/runs: HTTP %d %s", code, bytes.TrimSpace(b))
	}
	if sorted := slices.IsSortedFunc(list, func(a, b JobStatus) int { return strings.Compare(a.ID, b.ID) }); len(list) != 33 || !sorted {
		t.Errorf("run list of %d entries, sorted by key %v; want the 33 keys in order", len(list), sorted)
	}
}

// TestResubmittedKeyRunsAgain: a failed or cancelled run's /stream
// answers 410 with the run's error, and its key, submitted again, runs
// again under the same ID and ends done with the golden bytes — a
// cancelled run resubmitted through /runs, a failed one through
// /submit.
func TestResubmittedKeyRunsAgain(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	gone := func(id, msg string) {
		t.Helper()
		if code, b := getBody(t, c.Base+"/api/v1/runs/"+id+"/stream"); code != http.StatusGone || !strings.Contains(string(b), msg) {
			t.Errorf("/stream of the finished run: HTTP %d %s, want 410 with %q", code, bytes.TrimSpace(b), msg)
		}
	}

	sub := Submission{Experiment: "1", UntilS: 120}
	_, release := holdWorker(t, s, nil)
	first, _ := postRun(t, c, sub)
	if code := deleteRun(t, c, first.ID); code != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", code)
	}
	release()
	waitState(t, s, first.ID, StateCancelled)
	gone(first.ID, context.Canceled.Error())
	again, verdict := postRun(t, c, sub)
	if verdict != "miss" || again.ID != first.ID {
		t.Fatalf("resubmission: %q under %s, want a miss under %s", verdict, again.ID, first.ID)
	}
	waitState(t, s, again.ID, StateDone)
	if code, b := getBody(t, c.Base+"/api/v1/runs/"+again.ID+"/result"); code != http.StatusOK || !bytes.Equal(b, readGolden(t)) {
		t.Fatalf("resubmitted run: HTTP %d, %d bytes; want the golden bytes", code, len(b))
	}

	sub = Submission{Experiment: "2C", UntilS: 120}
	res, err := s.resolve(sub)
	if err != nil {
		t.Fatal(err)
	}
	failed := queueRun(t, s, res.key, func(context.Context, *job) error { return errors.New("engine fault") })
	<-failed.done
	gone(res.key, "engine fault")
	info, b := submit(t, c, sub)
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "telemetry_2C.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Cache != "miss" || info.Key != res.key || !bytes.Equal(b, golden) {
		t.Fatalf("resubmission: %q under %s, %d bytes; want a miss under %s with the %d golden bytes", info.Cache, info.Key, len(b), res.key, len(golden))
	}
	if st := waitState(t, s, info.Key, StateDone); st.ID != info.Key {
		t.Fatalf("run ID %s, want the X-Dvsim-Key %s", st.ID, info.Key)
	}
}

// TestPanickingRunFailsItsJobOnly: a run that panics — on the worker
// itself, or inside a sweep pool that re-raises it as a *sweep.Panic —
// fails its own job with the panic in its status and counts in
// runs_failed, while the lone worker goes on to serve the job queued
// behind it with the golden bytes.
func TestPanickingRunFailsItsJobOnly(t *testing.T) {
	golden := readGolden(t)
	s, c := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	panics := []func(){
		func() { panic("engine bug") },
		func() { sweep.Run([]int{0, 1, 2}, 2, func(i int) int { panic(fmt.Sprintf("line %d", i)) }) },
	}
	var failing []*job
	for i, p := range panics {
		failing = append(failing, queueRun(t, s, testKey(fmt.Sprintf("panic%d", i)), func(context.Context, *job) error {
			<-gate
			p()
			return nil
		}))
	}
	queued, _ := postRun(t, c, Submission{Experiment: "1", UntilS: 120})
	close(gate)
	for i, j := range failing {
		<-j.done
		if st := j.snapshot(); st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
			t.Errorf("panicking job %d ended %s (%q), want failed with the panic", i, st.State, st.Error)
		}
	}
	waitState(t, s, queued.ID, StateDone)
	if code, b := getBody(t, c.Base+"/api/v1/runs/"+queued.ID+"/result"); code != http.StatusOK || !bytes.Equal(b, golden) {
		t.Fatalf("queued job: HTTP %d, %d bytes; want the %d golden bytes", code, len(b), len(golden))
	}
	if st := s.stats(); st.RunsFailed != uint64(len(panics)) || st.RunsDone != 1 {
		t.Fatalf("runs_failed %d, runs_done %d; want %d and 1", st.RunsFailed, st.RunsDone, len(panics))
	}
}
