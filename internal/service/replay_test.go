package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
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
// X-Dvsim-Cache verdict.
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
// its /stream and /result, and those of an async hit's pre-completed
// job, replay the stored artifact — byte-identical to the golden, and
// counted as neither a hit nor a miss.
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
		hit, verdict := postRun(t, c, sub)
		if verdict != "hit" || hit.State != StateDone {
			t.Fatalf("second submission: %q, state %s; want a done hit", verdict, hit.State)
		}
		for _, id := range []string{miss.ID, hit.ID} {
			s.mu.Lock()
			j := s.jobs[id]
			s.mu.Unlock()
			if j.live() != nil {
				t.Errorf("done job %s still holds its stream", id)
			}
		}
		before := s.cache.Stats()
		for _, id := range []string{miss.ID, hit.ID} {
			for _, ep := range []string{"stream", "result"} {
				code, b := getBody(t, c.Base+"/api/v1/runs/"+id+"/"+ep)
				if code != http.StatusOK || !bytes.Equal(b, golden) {
					t.Errorf("%s /%s: HTTP %d, %d bytes; want the %d golden bytes", id, ep, code, len(b), len(golden))
				}
			}
		}
		if after := s.cache.Stats(); lookups(after) != lookups(before) {
			t.Errorf("replays moved the hit/miss counters: %+v, then %+v", before, after)
		}
	})
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
		gate := make(chan struct{})
		s.mu.Lock()
		blocker := s.newJobLocked(&resolved{key: testKey("blocker"), kind: "run"})
		blocker.stream = newStream()
		blocker.run = func(ctx context.Context, j *job) error {
			defer j.stream.close()
			<-gate
			return errors.New("held")
		}
		s.mu.Unlock()
		if err := s.q.push(blocker); err != nil {
			t.Fatal(err)
		}
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
		close(gate)
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
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := range 4 {
		miss(i)
	}
	h4 := heap()
	for i := 4; i < 16; i++ {
		miss(i)
	}
	h16 := heap()
	t.Logf("live heap %d bytes after 4 misses, %d after 16; an artifact is %d", h4, h16, size)
	if h16 > h4 && h16-h4 >= uint64(size) {
		t.Errorf("live heap grew %d bytes from 4 to 16 misses, an artifact is %d", h16-h4, size)
	}
	cs, err := c.CacheStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.MemBytes != 0 || cs.Misses != 16 || cs.Puts != 16 {
		t.Errorf("cache stats %+v, want 16 misses and puts and no bytes in memory", cs)
	}
	if st := s.stats(); st.Jobs != 16 {
		t.Errorf("%d jobs, want 16", st.Jobs)
	}
	tr.CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > baseline {
		t.Errorf("%d goroutines after the requests, %d before", n, baseline)
	}
}
