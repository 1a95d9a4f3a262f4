package memo

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datastall/internal/trainer"
)

func testKey(i int) Key {
	return KeyFromPreimage([]byte(fmt.Sprintf(`{"v":1,"case":%d}`, i)))
}

func testResult(i int) *trainer.Result {
	return &trainer.Result{
		EpochTime: float64(i) + 0.5, Throughput: 100 * float64(i),
		StallFraction: 0.25, HitRate: 0.75,
		Epochs: []trainer.EpochStats{{Duration: float64(i) + 0.5, Samples: 64}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	key, res := testKey(1), testResult(1)
	b, err := EncodeEntry(key, res)
	if err != nil {
		t.Fatal(err)
	}
	k2, r2, err := DecodeEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Hash != key.Hash {
		t.Fatalf("decoded key %s, want %s", k2.Hash, key.Hash)
	}
	if !reflect.DeepEqual(r2, res) {
		t.Fatalf("decoded result %+v, want %+v", r2, res)
	}
	// The round trip must also be byte-stable: re-encoding the decoded
	// result yields the same entry (the property byte-identical reports
	// rest on).
	b2, err := EncodeEntry(k2, r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("re-encoded entry differs from original bytes")
	}
}

func TestDecodeEntryCorruption(t *testing.T) {
	good, err := EncodeEntry(testKey(1), testResult(1))
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 0x01
	hugelen := append([]byte(nil), good...)
	hugelen[len(entryMagic)] = 0xff
	hugelen[len(entryMagic)+1] = 0xff
	hugelen[len(entryMagic)+2] = 0xff
	// An entry whose preimage does not hash to its recorded key (a renamed
	// or cross-linked file): reframe with a correct length and CRC so only
	// the hash check fires.
	var e entryJSON
	if err := json.Unmarshal(good[headerLen:], &e); err != nil {
		t.Fatal(err)
	}
	e.Key = testKey(2).Hash
	forged, _ := json.Marshal(e)

	cases := map[string][]byte{
		"empty":        {},
		"short":        good[:headerLen-1],
		"bad magic":    append([]byte("NOTMEMO!"), good[8:]...),
		"torn tail":    good[:len(good)-4],
		"trailing":     append(append([]byte(nil), good...), 0xde, 0xad),
		"bit flip":     flip,
		"huge length":  hugelen,
		"key mismatch": reframe(forged),
	}
	for name, b := range cases {
		if _, _, err := DecodeEntry(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	if _, err := EncodeEntry(Key{Hash: "x"}, testResult(1)); err == nil {
		t.Fatal("EncodeEntry accepted a key without preimage")
	}
	if _, err := EncodeEntry(testKey(1), nil); err == nil {
		t.Fatal("EncodeEntry accepted a nil result")
	}
}

// reframe wraps a raw payload in a structurally valid frame (good magic,
// length and CRC), for building entries that pass the frame checks but
// fail semantic validation.
func reframe(payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	copy(buf, entryMagic)
	binary.LittleEndian.PutUint32(buf[len(entryMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(entryMagic)+4:], crc32.Checksum(payload, crcTable))
	copy(buf[headerLen:], payload)
	return buf
}

func TestPutGetMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	key, res := testKey(1), testResult(1)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache returned a hit")
	}
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("Get after Put: ok=%v got=%+v", ok, got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if st.DiskEntries != 1 || st.BytesWritten == 0 {
		t.Fatalf("disk entries=%d bytesWritten=%d", st.DiskEntries, st.BytesWritten)
	}

	// A second cache on the same directory serves the entry from disk —
	// the cross-process sharing runsuite and stallserved rely on.
	c2, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := c2.Get(key)
	if !ok || !reflect.DeepEqual(got2, res) {
		t.Fatal("sibling cache did not serve the persisted entry")
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	// Memory-only cache sized for ~2 entries: inserting 3 evicts the LRU.
	b, _ := EncodeEntry(testKey(0), testResult(0))
	c, err := Open(Options{MaxBytes: int64(len(b))*2 + 16, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(testKey(i), testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions == 0 {
		t.Fatalf("entries=%d evictions=%d, want 2 resident and >0 evictions", st.Entries, st.Evictions)
	}
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived past the budget")
	}
	for _, i := range []int{1, 2} {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("entry %d evicted, want resident", i)
		}
	}
}

func TestDiskBudgetAtInsert(t *testing.T) {
	dir := t.TempDir()
	b, _ := EncodeEntry(testKey(0), testResult(0))
	c, err := Open(Options{Dir: dir, MaxBytes: int64(len(b))*2 + 16, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put(testKey(i), testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.DiskEntries > 2 {
		t.Fatalf("disk entries=%d, want <=2 under the budget", st.DiskEntries)
	}
	if _, err := os.Stat(c.path(testKey(0).Hash)); !os.IsNotExist(err) {
		t.Fatal("oldest entry file survived the disk budget")
	}
}

// TestReloadEnforcesMaxBytes is the regression for budget-at-reload:
// reopening a populated directory with a smaller budget must trim it
// immediately (oldest first), not wait for the next insert.
func TestReloadEnforcesMaxBytes(t *testing.T) {
	dir := t.TempDir()
	big, err := Open(Options{Dir: dir, MaxBytes: 1 << 20, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var entrySize int64
	for i := 0; i < n; i++ {
		if err := big.Put(testKey(i), testResult(i)); err != nil {
			t.Fatal(err)
		}
		b, _ := EncodeEntry(testKey(i), testResult(i))
		entrySize = int64(len(b))
	}
	if st := big.Stats(); st.DiskEntries != n {
		t.Fatalf("seeded %d entries, ledger has %d", n, st.DiskEntries)
	}

	small, err := Open(Options{Dir: dir, MaxBytes: entrySize*2 + 16, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	st := small.Stats()
	if st.DiskEntries > 2 {
		t.Fatalf("reopen with small budget kept %d entries, want <=2", st.DiskEntries)
	}
	if st.DiskBytes > small.MaxBytes() {
		t.Fatalf("disk bytes %d over budget %d after reload", st.DiskBytes, small.MaxBytes())
	}
	if st.Evictions == 0 {
		t.Fatal("reload trim counted no evictions")
	}
	left := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".memo" {
			left++
		}
		return nil
	})
	if left != st.DiskEntries {
		t.Fatalf("%d files on disk, ledger says %d", left, st.DiskEntries)
	}
	// Survivors still decode and serve.
	if _, ok := small.Get(testKey(n - 1)); !ok {
		t.Fatal("newest entry should survive the reload trim")
	}
}

func TestCorruptEntryIsMissNeverServed(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := c.Put(key, testResult(1)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the persisted entry, then drop the memory copy by reopening.
	path := c.path(key.Hash)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("corrupt entry was served")
	}
	st := c2.Stats()
	if st.LoadErrors != 1 || st.Misses != 1 {
		t.Fatalf("loadErrors=%d misses=%d, want 1/1", st.LoadErrors, st.Misses)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry file not deleted")
	}
	// Truncated variant: a torn write (no atomic rename) behaves the same.
	key2 := testKey(2)
	if err := c2.Put(key2, testResult(2)); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(c2.path(key2.Hash))
	if err := os.WriteFile(c2.path(key2.Hash), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(key2); ok {
		t.Fatal("truncated entry was served")
	}
	if st := c3.Stats(); st.LoadErrors != 1 {
		t.Fatalf("loadErrors=%d, want 1", st.LoadErrors)
	}
}

func TestGroupSingleflight(t *testing.T) {
	var g Group
	var runs atomic.Int64
	const callers = 16
	// The leader's fn holds its flight open until every caller has
	// announced itself and had ample time to reach the waiter path —
	// otherwise callers could serialize (leader finishes before the next
	// caller arrives) and legitimately run fn more than once.
	var entered sync.WaitGroup
	entered.Add(callers)
	var wg sync.WaitGroup
	results := make([]*trainer.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			res, _, err := g.Do(context.Background(), "k", func() (*trainer.Result, error) {
				runs.Add(1)
				entered.Wait()
				time.Sleep(100 * time.Millisecond)
				return testResult(7), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, r := range results {
		if !reflect.DeepEqual(r, testResult(7)) {
			t.Fatalf("caller %d got %+v", i, r)
		}
	}
}

// TestGroupLeaderErrorNotShared: a leader's failure (e.g. its job's
// cancellation) must not poison waiters — each retries instead.
func TestGroupLeaderErrorNotShared(t *testing.T) {
	var g Group
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	go func() {
		g.Do(context.Background(), "k", func() (*trainer.Result, error) {
			close(leaderIn)
			<-leaderOut
			return nil, errors.New("leader cancelled")
		})
	}()
	<-leaderIn
	done := make(chan *trainer.Result, 1)
	go func() {
		res, _, err := g.Do(context.Background(), "k", func() (*trainer.Result, error) {
			return testResult(9), nil
		})
		if err != nil {
			t.Errorf("waiter inherited the leader's error: %v", err)
		}
		done <- res
	}()
	close(leaderOut)
	if res := <-done; !reflect.DeepEqual(res, testResult(9)) {
		t.Fatalf("waiter result %+v, want its own run", res)
	}
}

func TestGroupWaiterHonorsContext(t *testing.T) {
	var g Group
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		g.Do(context.Background(), "k", func() (*trainer.Result, error) {
			close(leaderIn)
			<-release
			return testResult(1), nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
}

func TestDoAccounting(t *testing.T) {
	c, err := Open(Options{Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	run := func() (*trainer.Result, error) { return testResult(1), nil }
	res, hit, err := c.Do(context.Background(), key, new(Writes), run)
	if err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v, want cold miss", hit, err)
	}
	if !reflect.DeepEqual(res, testResult(1)) {
		t.Fatalf("first Do result %+v", res)
	}
	if _, hit, _ = c.Do(context.Background(), key, new(Writes), run); !hit {
		t.Fatal("second Do missed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	// Concurrent identical Do: exactly one simulation, one miss, the rest
	// hits (in-flight waiters count as hits — they didn't simulate).
	c2, _ := Open(Options{Salt: "test"})
	var runs atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	const callers = 8
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			c2.Do(context.Background(), key, new(Writes), func() (*trainer.Result, error) {
				runs.Add(1)
				return testResult(1), nil
			})
		}()
	}
	close(gate)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("concurrent Do ran fn %d times, want 1", n)
	}
	st = c2.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", st.Hits, st.Misses, callers-1)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c, _ := Open(Options{Salt: "test"})
	key := testKey(1)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), key, new(Writes), func() (*trainer.Result, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be memoized: the next Do runs again.
	res, hit, err := c.Do(context.Background(), key, new(Writes), func() (*trainer.Result, error) {
		return testResult(1), nil
	})
	if err != nil || hit || !reflect.DeepEqual(res, testResult(1)) {
		t.Fatalf("retry after error: res=%+v hit=%v err=%v", res, hit, err)
	}
}

func TestOversizeEntryNotCached(t *testing.T) {
	b, _ := EncodeEntry(testKey(1), testResult(1))
	c, err := Open(Options{MaxBytes: int64(len(b)) - 1, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(1), testResult(1)); err != nil {
		t.Fatalf("oversize Put should be a silent no-op, got %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversize entry was cached (%d resident)", st.Entries)
	}
}

// TestDoWritesBehind: with a Writes, a miss's result is served from memory
// as soon as Do returns, and once Wait returns its entry is on disk, where
// a fresh cache on the directory finds it. A hit on that entry by another
// caller before the write ends joins the second caller's Writes to it.
func TestDoWritesBehind(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	var w Writes
	for i := 0; i < n; i++ {
		res, hit, err := c.Do(context.Background(), testKey(i), &w, func() (*trainer.Result, error) {
			return testResult(i), nil
		})
		if err != nil || hit || !reflect.DeepEqual(res, testResult(i)) {
			t.Fatalf("Do %d: res=%+v hit=%v err=%v", i, res, hit, err)
		}
		// Served from memory before the write need have finished.
		if got, ok := c.Get(testKey(i)); !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("entry %d not published in memory", i)
		}
	}
	if w.Len() != n {
		t.Fatalf("Writes tracks %d writes, want %d", w.Len(), n)
	}
	w.Wait()
	if w.Len() != 0 {
		t.Fatalf("Writes tracks %d writes after Wait", w.Len())
	}
	if st := c.Stats(); st.DiskEntries != n || st.Misses != n {
		t.Fatalf("disk entries %d, misses %d after Wait, want %d/%d", st.DiskEntries, st.Misses, n, n)
	}
	fresh, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, ok := fresh.Get(testKey(i)); !ok || !reflect.DeepEqual(got, testResult(i)) {
			t.Fatalf("entry %d not durable after Wait", i)
		}
	}

	// A caller served from memory while the entry's write is in flight
	// waits for that write: hold it open with a claim of our own.
	key := testKey(n)
	var a, b Writes
	if _, _, err := c.Do(context.Background(), key, &a, func() (*trainer.Result, error) {
		return testResult(n), nil
	}); err != nil {
		t.Fatal(err)
	}
	a.Wait()
	done, mine := c.claim(key.Hash)
	if !mine {
		t.Fatal("claim of an idle entry was refused")
	}
	if _, hit, _ := c.Do(context.Background(), key, &b, nil); !hit {
		t.Fatal("published entry missed")
	}
	if b.Len() != 1 {
		t.Fatalf("hit on an entry being written tracks %d writes, want 1", b.Len())
	}
	c.release(key.Hash, done)
	b.Wait()
}

// TestOpenRemovesLeftoverTemp: a write cut short between create and rename
// leaves <hash>.memo.tmp behind; Open deletes it and keeps real entries.
func TestOpenRemovesLeftoverTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(1), testResult(1)); err != nil {
		t.Fatal(err)
	}
	tmp := c.path(testKey(2).Hash) + ".tmp"
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived Open: %v", err)
	}
	if st := re.Stats(); st.DiskEntries != 1 {
		t.Fatalf("reopened ledger has %d entries, want 1", st.DiskEntries)
	}
	if _, ok := re.Get(testKey(1)); !ok {
		t.Fatal("real entry lost beside the leftover temp file")
	}
}
