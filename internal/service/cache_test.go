package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestCacheMemory(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("a")
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	if err := c.Put(k, []byte("artifact")); err != nil {
		t.Fatal(err)
	}
	b, ok := c.Get(k)
	if !ok || !bytes.Equal(b, []byte("artifact")) {
		t.Fatalf("Get = %q, %v", b, ok)
	}
	st := c.Stats()
	want := CacheStats{Hits: 1, Misses: 1, Puts: 1, Entries: 1, Bytes: 8, MemBytes: 8}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	// Re-putting an existing key is a no-op, not a double count.
	if err := c.Put(k, []byte("artifact")); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("re-put counted: %+v", st)
	}
}

func TestCacheDiskPersists(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("persist")
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Disk is the store of record: a put keeps no bytes in memory, and
	// the first read admits them.
	if st := c.Stats(); st.MemBytes != 0 || st.Entries != 1 || st.Bytes != 7 {
		t.Fatalf("stats after put %+v, want 1 entry of 7 bytes, none in memory", st)
	}
	if b, ok := c.Get(k); !ok || string(b) != "payload" {
		t.Fatalf("Get = %q, %v", b, ok)
	}
	if st := c.Stats(); st.MemBytes != 7 || st.Hits != 1 {
		t.Fatalf("stats after first read %+v, want 7 bytes in memory and 1 hit", st)
	}
	// A fresh store over the same directory serves the entry and counts
	// it in its opening inventory.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 1 || st.Bytes != 7 {
		t.Fatalf("reopened stats %+v", st)
	}
	b, ok := c2.Get(k)
	if !ok || string(b) != "payload" {
		t.Fatalf("reopened Get = %q, %v", b, ok)
	}
}

// TestCacheFirstReadsShareOneCopy: Gets that race on an entry not yet
// in memory all read it, the memory layer keeps one copy, every caller
// gets that copy, and each Get counts exactly one hit.
func TestCacheFirstReadsShareOneCopy(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("shared")
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.Get(k)
		}()
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, payload) {
			t.Fatalf("reader %d got %d bytes, want the %d stored", i, len(b), len(payload))
		}
		if &b[0] != &got[0][0] {
			t.Fatalf("readers 0 and %d got different copies", i)
		}
	}
	want := CacheStats{Hits: readers, Puts: 1, Entries: 1, Bytes: int64(len(payload)), MemBytes: int64(len(payload))}
	if st := c.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

func TestCacheIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README.md", "not-a-key.bin", "put-1234"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("foreign files counted: %+v", st)
	}
}
