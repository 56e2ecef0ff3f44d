// Package service is dvsim-as-a-service: a long-running simulation
// server with a content-addressed run cache. Because every simulation
// in this repository is byte-deterministic — fully a function of
// (engine version, resolved configuration, seed) — a run's output can
// be cached under the SHA-256 of its canonical identity
// (manifest.KeySpec) and replayed forever: a cache hit returns the
// stored bytes, a miss simulates exactly once and stores them. The
// server executes submissions on a bounded worker pool fed by a
// two-level priority queue (interactive single runs overtake bulk
// manifest sweeps), streams telemetry over chunked HTTP responses, and
// drains in-flight runs on shutdown.
//
// This package is deliberately outside the determinism lint scope: a
// server reads the wall clock and serves concurrent clients. Every
// simulation it launches still goes through the guarded core entry
// points, which is what makes the cache sound in the first place.
package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// CacheStats counts what the content-addressed store has done since
// the server started (plus what it found on disk at open).
type CacheStats struct {
	// Hits served stored bytes; Misses fell through to a simulation;
	// Puts stored a fresh result; Coalesced joined an identical
	// in-flight run instead of starting a duplicate.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Coalesced uint64 `json:"coalesced"`
	// Entries and Bytes measure the store's current contents.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MemBytes is the part of Bytes held in memory: every entry of a
	// memory-only store, only the entries read since open of a
	// disk-backed one.
	MemBytes int64 `json:"mem_bytes"`
}

// Cache is the content-addressed run store: artifact bytes addressed
// by the hex SHA-256 of their run's canonical KeySpec. Safe for
// concurrent use.
//
// With a directory configured, disk is the store of record: Put writes
// the entry's file and keeps no bytes, and the memory layer admits an
// entry on the first Get that reads its file, so an artifact that is
// stored and never asked for again costs no memory, while hot entries
// are answered from memory. A restarted server starts warm. Without a
// directory the memory layer is the whole store, one exact-size copy
// per entry.
type Cache struct {
	dir string // "" = memory only

	mu     sync.Mutex
	mem    map[string][]byte   // memory layer
	stored map[string]struct{} // every complete entry's key
	stats  CacheStats
}

// NewCache opens a store. dir == "" keeps entries in memory only;
// otherwise dir is created if needed and existing entries are indexed
// (their bytes load lazily on first hit).
func NewCache(dir string) (*Cache, error) {
	c := &Cache{dir: dir, mem: make(map[string][]byte), stored: make(map[string]struct{})}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".bin")
		if !ok || !validKey(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		c.stored[key] = struct{}{}
		c.stats.Entries++
		c.stats.Bytes += info.Size()
	}
	return c, nil
}

// validKey recognizes the hex SHA-256 names Put writes, so foreign
// files in the cache directory are ignored rather than served.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".bin")
}

// Get returns the stored bytes for key, counting a hit or a miss. The
// returned slice is the caller's to read, never to mutate.
func (c *Cache) Get(key string) ([]byte, bool) { return c.load(key, true) }

// replay returns the stored bytes for key like Get, but counts neither
// a hit nor a miss: it serves a job whose request was already counted.
func (c *Cache) replay(key string) ([]byte, bool) { return c.load(key, false) }

// load finds key in the memory layer or, failing that, reads its file
// with the lock released, so one cold read never holds up the hits
// behind it. When two first reads of a key race, the first to finish
// is admitted and both callers get its slice.
func (c *Cache) load(key string, count bool) ([]byte, bool) {
	c.mu.Lock()
	b, ok := c.mem[key]
	_, stored := c.stored[key]
	if ok || !stored {
		c.tally(count, ok)
		c.mu.Unlock()
		return b, ok
	}
	c.mu.Unlock()
	b, err := os.ReadFile(c.path(key))
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.tally(count, false)
		return nil, false
	}
	if prev, ok := c.mem[key]; ok {
		b = prev
	} else {
		c.mem[key] = b
		c.stats.MemBytes += int64(len(b))
	}
	c.tally(count, true)
	return b, true
}

// tally counts a counted lookup as a hit or a miss; c.mu held.
func (c *Cache) tally(count, hit bool) {
	switch {
	case !count:
	case hit:
		c.stats.Hits++
	default:
		c.stats.Misses++
	}
}

// Put stores b under key. A disk-backed store writes atomically (temp
// file + rename), so a crashed server never leaves a truncated entry
// behind. Re-putting an existing key is a no-op: the store is
// content-addressed, equal keys mean equal bytes.
func (c *Cache) Put(key string, b []byte) error {
	return c.put(key, [][]byte{b})
}

// put stores the concatenation of parts: on disk only, when the store
// has a directory, or as one exact-size copy in memory. The file is
// written with the lock released; if two puts of one key race, both
// write the same bytes and one is counted.
func (c *Cache) put(key string, parts [][]byte) error {
	c.mu.Lock()
	_, done := c.stored[key]
	c.mu.Unlock()
	if done {
		return nil
	}
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	var b []byte
	if c.dir == "" {
		b = make([]byte, 0, n)
		for _, p := range parts {
			b = append(b, p...)
		}
	} else if err := c.write(key, parts); err != nil {
		return fmt.Errorf("service: cache put: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, done := c.stored[key]; done {
		return nil
	}
	c.stored[key] = struct{}{}
	c.stats.Puts++
	c.stats.Entries++
	c.stats.Bytes += n
	if c.dir == "" {
		c.mem[key] = b
		c.stats.MemBytes += n
	}
	return nil
}

// write puts parts in key's file: a temp file written in order, then
// renamed into place.
func (c *Cache) write(key string, parts [][]byte) error {
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Coalesced counts a request that joined an identical in-flight run.
func (c *Cache) Coalesced() {
	c.mu.Lock()
	c.stats.Coalesced++
	c.mu.Unlock()
}

// Stats returns a copy of the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
