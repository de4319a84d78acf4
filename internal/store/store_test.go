package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFingerprintDeterministicAndDistinct(t *testing.T) {
	a := Fingerprint("run", "a", "b")
	if a != Fingerprint("run", "a", "b") {
		t.Fatal("fingerprint is not deterministic")
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint length = %d, want 16", len(a))
	}
	// NUL separation: part boundaries must not alias.
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("part boundaries alias")
	}
	if Fingerprint("run", "a") == Fingerprint("sweep", "a") {
		t.Fatal("kinds alias")
	}
}

func TestRunKeyCoversEveryKnob(t *testing.T) {
	base := RunKey("Hybrid2", "mix1", 2, 1, 1000, 1, false)
	variants := []string{
		RunKey("CacheNM", "mix1", 2, 1, 1000, 1, false),
		RunKey("Hybrid2", "mix2", 2, 1, 1000, 1, false),
		RunKey("Hybrid2", "mix1", 4, 1, 1000, 1, false),
		RunKey("Hybrid2", "mix1", 2, 2, 1000, 1, false),
		RunKey("Hybrid2", "mix1", 2, 1, 2000, 1, false),
		RunKey("Hybrid2", "mix1", 2, 1, 1000, 2, false),
		RunKey("Hybrid2", "mix1", 2, 1, 1000, 1, true),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides with another key", i)
		}
		seen[v] = true
	}
}

func TestLRUByteBoundAndOversized(t *testing.T) {
	c := NewLRU[[]byte](100, 100, func(b []byte) int64 { return int64(len(b)) })
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 30))
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("byte bound violated: %d bytes cached, bound 100", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	if c.Put("huge", make([]byte, 200)) {
		t.Fatal("Put of an entry larger than the byte bound reported it kept")
	}
	if _, ok := c.Peek("huge"); ok {
		t.Fatal("entry larger than the byte bound was cached")
	}
	// An oversized value drops the older value under its key instead of
	// flushing the cache.
	if !c.Put("k9", make([]byte, 30)) {
		t.Fatal("Put of an entry within the bounds reported it not kept")
	}
	before := c.Stats().Entries
	if c.Put("k9", make([]byte, 200)) {
		t.Fatal("oversized update reported it kept")
	}
	if _, ok := c.Peek("k9"); ok {
		t.Fatal("oversized update left the older value in place")
	}
	if st := c.Stats(); st.Entries != before-1 || st.Bytes != int64(30*(before-1)) {
		t.Fatalf("oversized update: %d entries, %d bytes; want %d, %d", st.Entries, st.Bytes, before-1, 30*(before-1))
	}
}

// TestStorePutReportsRetention: Put reports false only when no tier
// keeps the entry — a memory tier too small for it is covered by a disk
// tier that holds it.
func TestStorePutReportsRetention(t *testing.T) {
	doc := make([]byte, 200)
	mem, err := Open(Options{MemBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Put("k", doc) {
		t.Fatal("memory-only store below the entry's size reported it kept")
	}
	if !mem.Put("small", doc[:50]) {
		t.Fatal("memory-only store refused an entry within its bound")
	}
	disk, err := Open(Options{MemBytes: 100, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !disk.Put("k", doc) {
		t.Fatal("unbounded disk tier reported the entry not kept")
	}
	if data, ok := disk.Peek("k"); !ok || len(data) != len(doc) {
		t.Fatalf("Peek after Put: %d bytes, %v", len(data), ok)
	}
	bounded, err := Open(Options{MemBytes: 100, Dir: t.TempDir(), MaxBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Put("k", doc) {
		t.Fatal("entry past both tiers' bounds reported kept")
	}
}

func TestLRUEntryBoundEvictsOldest(t *testing.T) {
	c := NewLRU[int](2, 0, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now most recently used
	c.Put("c", 3)
	if _, ok := c.Peek("b"); ok {
		t.Fatal("least-recently-used entry was not evicted")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently-used entry was evicted")
	}
}

// TestLRUEvictionHookAndRemove pins the two hooks a bounded disk tier
// builds on: OnEvict fires once per evicted key, least recently used
// first, and Remove releases a key's bytes without counting an
// eviction or firing the hook.
func TestLRUEvictionHookAndRemove(t *testing.T) {
	c := NewLRU[int64](0, 100, func(n int64) int64 { return n })
	var evicted []string
	c.OnEvict = func(key string, size int64) {
		if size != 30 {
			t.Errorf("OnEvict(%q) got size %d, want 30", key, size)
		}
		evicted = append(evicted, key)
	}
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, 30)
	}
	c.Get("a") // order, oldest first: b, c, a
	c.Put("d", 30)
	c.Put("e", 30)
	if got := strings.Join(evicted, ","); got != "b,c" {
		t.Fatalf("evicted %q, want b,c in LRU order", got)
	}
	c.Remove("a")
	c.Remove("absent")
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 60 || st.Evictions != 2 {
		t.Fatalf("after Remove: %+v, want 2 entries, 60 bytes, 2 evictions", st)
	}
	if _, ok := c.Peek("a"); ok {
		t.Fatal("removed key still present")
	}
	if len(evicted) != 2 {
		t.Fatalf("Remove fired OnEvict: %v", evicted)
	}
	// The released bytes make room: two more entries fit without evicting.
	c.Put("f", 30)
	if st := c.Stats(); st.Evictions != 2 || st.Bytes != 90 {
		t.Fatalf("after refill: %+v, want 90 bytes and no new eviction", st)
	}
}

func TestFlightCollapsesConcurrentCalls(t *testing.T) {
	const callers = 8
	f := NewFlight[int]()
	var mu sync.Mutex
	calls := 0
	sharedCount := 0
	var entered atomic.Int32
	// The winner's fn holds the singleflight slot open until every
	// caller has announced itself and had a scheduling window to reach
	// Do, so all of them land on the same in-flight call.
	fn := func() (int, error) {
		for entered.Load() < callers {
			runtime.Gosched()
		}
		time.Sleep(25 * time.Millisecond)
		mu.Lock()
		calls++
		mu.Unlock()
		return 42, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			v, err, shared := f.Do("k", fn)
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
			if shared {
				mu.Lock()
				sharedCount++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if sharedCount != callers-1 {
		t.Fatalf("shared reported by %d callers, want %d", sharedCount, callers-1)
	}
}

func TestStoreTieringAndPromotion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k1", []byte("hello"))
	if data, tier, ok := s.Get("k1"); !ok || tier != TierMem || string(data) != "hello" {
		t.Fatalf("Get after Put = %q, %v, %v; want mem hit", data, tier, ok)
	}

	// A second store on the same directory sees only the disk tier.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data, tier, ok := s2.Get("k1")
	if !ok || tier != TierDisk || string(data) != "hello" {
		t.Fatalf("cross-instance Get = %q, %v, %v; want disk hit", data, tier, ok)
	}
	// Promotion: the disk hit is now in s2's memory tier.
	if _, tier, ok := s2.Get("k1"); !ok || tier != TierMem {
		t.Fatalf("promoted Get tier = %v, %v; want mem hit", tier, ok)
	}

	if _, _, ok := s2.Get("absent"); ok {
		t.Fatal("absent key reported found")
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.DiskMisses != 1 {
		t.Fatalf("disk hits/misses = %d/%d, want 1/1", st.DiskHits, st.DiskMisses)
	}
}

func TestStoreNilReceiver(t *testing.T) {
	var s *Store
	if s.Put("k", []byte("v")) {
		t.Fatal("nil store kept an entry")
	}
	s.PutDisk("k", []byte("v"))
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("nil store reported a hit")
	}
	if _, ok := s.Peek("k"); ok {
		t.Fatal("nil store peeked a hit")
	}
	if _, ok := s.GetDisk("k"); ok {
		t.Fatal("nil store disk-hit")
	}
	if s.HasDisk() {
		t.Fatal("nil store has a disk tier")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

func TestDiskGCUnderByteBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 300) // ~375 B per file with envelope
	for i := 0; i < 12; i++ {
		s.PutDisk(fmt.Sprintf("key%02d", i), payload)
	}
	st := s.Stats()
	if st.DiskBytes > 2048 {
		t.Fatalf("disk bytes %d exceed bound 2048", st.DiskBytes)
	}
	if st.DiskEvictions == 0 {
		t.Fatal("no GC evictions recorded despite overflow")
	}
	// The oldest entries are gone, the newest survive.
	if _, ok := s.GetDisk("key00"); ok {
		t.Fatal("oldest entry survived GC")
	}
	if _, ok := s.GetDisk("key11"); !ok {
		t.Fatal("newest entry was GC'd")
	}
	// On-disk reality matches the accounting.
	var total int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		info, err := e.Info()
		if err == nil && strings.HasSuffix(e.Name(), diskExt) {
			total += info.Size()
		}
	}
	if total > 2048 {
		t.Fatalf("on-disk bytes %d exceed bound 2048", total)
	}
}

func TestDiskGCSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 300)
	for i := 0; i < 12; i++ {
		s.PutDisk(fmt.Sprintf("key%02d", i), payload)
	}
	// Reopen with a bound: the startup scan must GC down to it.
	s2, err := Open(Options{Dir: dir, MaxBytes: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskBytes > 1500 {
		t.Fatalf("disk bytes %d exceed bound 1500 after reopen", st.DiskBytes)
	}
	if _, ok := s2.GetDisk("key11"); !ok {
		t.Fatal("newest entry was GC'd at reopen")
	}
}

// TestDiskCountersWithoutBound pins an unbounded tier's counters: the
// directory scan at Open, plus each file a put creates (an overwrite
// changes only the bytes), less each corrupt file a read discards.
func TestDiskCountersWithoutBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.PutDisk("a", []byte("first"))
	s.PutDisk("b", []byte("second"))
	size := func(key string) int64 {
		info, err := os.Stat(filepath.Join(dir, key+diskExt))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	want := size("a") + size("b")
	if st := s.Stats(); st.DiskEntries != 2 || st.DiskBytes != want {
		t.Fatalf("after two puts: %d entries, %d bytes; want 2, %d", st.DiskEntries, st.DiskBytes, want)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskEntries != 2 || st.DiskBytes != want {
		t.Fatalf("scan at open: %d entries, %d bytes; want 2, %d", st.DiskEntries, st.DiskBytes, want)
	}
	s2.PutDisk("a", []byte("a longer first payload"))
	want += size("a") - int64(len(encodeEnvelope([]byte("first"))))
	if st := s2.Stats(); st.DiskEntries != 2 || st.DiskBytes != want {
		t.Fatalf("after overwrite: %d entries, %d bytes; want 2, %d", st.DiskEntries, st.DiskBytes, want)
	}
	// A bit flip keeps the file's size, so the discard subtracts what
	// the scan counted.
	bad := filepath.Join(dir, "b"+diskExt)
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetDisk("b"); ok {
		t.Fatal("corrupt entry served")
	}
	if st := s2.Stats(); st.DiskEntries != 1 || st.DiskBytes != size("a") {
		t.Fatalf("after discard: %d entries, %d bytes; want 1, %d", st.DiskEntries, st.DiskBytes, size("a"))
	}
}

func TestDiskCorruptionDiscardedNeverServed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.PutDisk("trunc", []byte("some payload that will be truncated"))
	s.PutDisk("flip", []byte("some payload that will be bit-flipped"))
	s.PutDisk("good", []byte("untouched"))

	// Truncate one entry, flip a payload bit in another.
	truncPath := filepath.Join(dir, "trunc"+diskExt)
	raw, err := os.ReadFile(truncPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	flipPath := filepath.Join(dir, "flip"+diskExt)
	raw, err = os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(flipPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{"trunc", "flip"} {
		if _, ok := s.GetDisk(key); ok {
			t.Fatalf("corrupt entry %q was served", key)
		}
		if _, err := os.Stat(filepath.Join(dir, key+diskExt)); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry %q was not deleted (err=%v)", key, err)
		}
	}
	if data, ok := s.GetDisk("good"); !ok || string(data) != "untouched" {
		t.Fatalf("intact entry misread: %q, %v", data, ok)
	}
	st := s.Stats()
	if st.DiskCorrupt != 2 {
		t.Fatalf("corrupt discards = %d, want 2", st.DiskCorrupt)
	}
	// A re-Put after discard serves again.
	s.PutDisk("trunc", []byte("fresh"))
	if data, ok := s.GetDisk("trunc"); !ok || string(data) != "fresh" {
		t.Fatalf("re-put after discard = %q, %v", data, ok)
	}
}

func TestDiskConcurrentWritersOneDirectory(t *testing.T) {
	dir := t.TempDir()
	// Two independent store instances (as two processes would have) plus
	// goroutine concurrency within each.
	s1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := s1
			if w%2 == 1 {
				s = s2
			}
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key%02d", i)
				val := []byte(fmt.Sprintf("value-%02d", i))
				s.PutDisk(key, val)
				if data, ok := s.GetDisk(key); ok && !bytes.Equal(data, val) {
					t.Errorf("writer %d read %q for %q", w, data, key)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every key is readable and correct from both instances and from a
	// fresh scan.
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key%02d", i)
		want := fmt.Sprintf("value-%02d", i)
		for name, s := range map[string]*Store{"s1": s1, "s2": s2, "s3": s3} {
			if data, ok := s.GetDisk(key); !ok || string(data) != want {
				t.Fatalf("%s: GetDisk(%q) = %q, %v; want %q", name, key, data, ok, want)
			}
		}
	}
	if st := s3.Stats(); st.DiskEntries != keys {
		t.Fatalf("fresh scan found %d entries, want %d", st.DiskEntries, keys)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v"))
	s2, _ := Open(Options{Dir: dir})
	if _, ok := s2.Peek("k"); !ok {
		t.Fatal("Peek missed a disk entry")
	}
	if _, ok := s2.Peek("absent"); ok {
		t.Fatal("Peek found an absent key")
	}
	st := s2.Stats()
	if st.MemHits != 0 || st.MemMisses != 0 || st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Fatalf("Peek moved hit/miss counters: %+v", st)
	}
	// The disk peek still promoted into memory.
	if _, tier, ok := s2.Get("k"); !ok || tier != TierMem {
		t.Fatalf("Get after Peek = tier %v, %v; want mem hit", tier, ok)
	}
}
