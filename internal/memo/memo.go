// Package memo is a content-addressed cache of simulation results: the
// answer to "this exact fully-resolved case" is stored once under the
// sha256 of its canonical preimage and replayed on every later request —
// in this process from an in-memory LRU, across processes from a persisted
// entry directory shared by `runsuite -memo` and `stallserved -memo`.
//
// The cache is only correct because the simulations are deterministic and
// trainer.Result round-trips JSON exactly (Go emits shortest-roundtrip
// floats — the property coordinator mode and the WAL already lean on), so
// a memoized cell is byte-identical to a re-simulated one all the way out
// to rendered reports and /v1/query NDJSON. Staleness is prevented by
// construction, not by TTLs: the preimage embeds an engine-version salt
// (salt.go), so any build of different code hashes every case to a
// different address and an old cache directory degrades to a cold one.
//
// Entries are written crash-atomically (wal.AtomicWriteFile) in a CRC-framed
// envelope; a torn, truncated or bit-flipped entry fails its checksum or
// its hash check, is counted as a load error, deleted, and treated as a
// miss — corruption can cost a re-simulation, never a wrong result. A
// crash between write and rename leaves a temp file, which Open deletes.
//
// A miss need not wait for its write: Do publishes the result in memory,
// returns, and writes the entry on a goroutine, so the disk wait overlaps
// the caller's next case. The caller's Writes.Wait then blocks until every
// such write has ended; the cell executor calls it before a grid returns,
// so entries still land before a job's terminal WAL record. A write that
// fails (a full disk, say) leaves its entry out, which costs a future hit
// and never a wrong result — as a failed Put always has.
package memo

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datastall/internal/trainer"
	"datastall/internal/wal"
)

const (
	// entryMagic leads every persisted entry; a file that does not start
	// with it is not (a whole) entry.
	entryMagic = "DSMEMO1\n"
	// headerLen is magic + 4-byte length + 4-byte CRC32C.
	headerLen = len(entryMagic) + 8
	// maxEntryBytes bounds a single entry payload — far above any real
	// Result, it exists so a corrupt length field cannot drive a huge
	// allocation (the same guard the WAL frame decoder applies).
	maxEntryBytes = 64 << 20
	// DefaultMaxBytes is the cache budget when Options.MaxBytes is unset,
	// applied independently to the in-memory LRU and the entry directory.
	DefaultMaxBytes = 256 << 20
)

// ErrCorrupt marks an entry that failed structural validation: bad magic,
// impossible length, CRC mismatch, undecodable payload, or a preimage that
// does not hash to the entry's recorded key.
var ErrCorrupt = errors.New("memo: corrupt entry")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Key is one case's content address: the canonical preimage (which embeds
// the engine salt) and its hex sha256. Build keys with KeyFromPreimage so
// the two can never disagree.
type Key struct {
	// Hash is the 64-hex-char sha256 of Preimage — the cache address.
	Hash string
	// Preimage is the canonical JSON the hash covers. Persisted inside the
	// entry so every entry is self-describing and verifiable.
	Preimage []byte
}

// KeyFromPreimage addresses a canonical preimage.
func KeyFromPreimage(preimage []byte) Key {
	sum := sha256.Sum256(preimage)
	return Key{Hash: hex.EncodeToString(sum[:]), Preimage: append([]byte(nil), preimage...)}
}

// entryJSON is the persisted payload: the address, the preimage it was
// derived from, and the result. Key is redundant with the filename on
// purpose — a renamed or cross-linked file fails validation instead of
// serving another case's result.
type entryJSON struct {
	Key      string          `json:"key"`
	Preimage json.RawMessage `json:"preimage"`
	Result   *trainer.Result `json:"result"`
}

// EncodeEntry renders one cache entry in its on-disk form:
//
//	"DSMEMO1\n" | uint32 LE payload length | uint32 LE CRC32C | payload JSON
//
// The frame is the WAL record idiom: length + Castagnoli CRC in front of
// the payload, so truncation and bit flips are detected structurally.
func EncodeEntry(key Key, res *trainer.Result) ([]byte, error) {
	if res == nil {
		return nil, errors.New("memo: nil result")
	}
	if len(key.Preimage) == 0 || !json.Valid(key.Preimage) {
		return nil, errors.New("memo: key has no canonical preimage")
	}
	payload, err := json.Marshal(entryJSON{Key: key.Hash, Preimage: key.Preimage, Result: res})
	if err != nil {
		return nil, fmt.Errorf("memo: encode: %w", err)
	}
	if len(payload) > maxEntryBytes {
		return nil, fmt.Errorf("memo: entry payload %d bytes exceeds the %d-byte bound", len(payload), maxEntryBytes)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf, entryMagic)
	binary.LittleEndian.PutUint32(buf[len(entryMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(entryMagic)+4:], crc32.Checksum(payload, crcTable))
	copy(buf[headerLen:], payload)
	return buf, nil
}

// DecodeEntry parses and validates one persisted entry. Every failure mode
// wraps ErrCorrupt; a nil error guarantees the returned key's hash is the
// sha256 of the returned preimage and the result is non-nil.
func DecodeEntry(b []byte) (Key, *trainer.Result, error) {
	if len(b) < headerLen || string(b[:len(entryMagic)]) != entryMagic {
		return Key{}, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(b[len(entryMagic):])
	if n > maxEntryBytes || int(n) != len(b)-headerLen {
		return Key{}, nil, fmt.Errorf("%w: payload length %d does not match %d trailing byte(s)", ErrCorrupt, n, len(b)-headerLen)
	}
	payload := b[headerLen:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[len(entryMagic)+4:]) {
		return Key{}, nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	var e entryJSON
	if err := json.Unmarshal(payload, &e); err != nil {
		return Key{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if e.Result == nil || len(e.Preimage) == 0 {
		return Key{}, nil, fmt.Errorf("%w: missing result or preimage", ErrCorrupt)
	}
	key := KeyFromPreimage(e.Preimage)
	if key.Hash != e.Key {
		return Key{}, nil, fmt.Errorf("%w: preimage hashes to %s, entry claims %s", ErrCorrupt, key.Hash, e.Key)
	}
	return key, e.Result, nil
}

// Options configures a Cache.
type Options struct {
	// Dir is the persisted entry directory, shared across processes
	// (runsuite and stallserved read and write the same layout). Empty
	// means memory-only.
	Dir string
	// MaxBytes bounds the in-memory LRU and the entry directory,
	// independently (<= 0: DefaultMaxBytes). The disk bound is enforced
	// both at insert and at Open, so reopening with a smaller budget trims
	// the directory down.
	MaxBytes int64
	// Salt overrides the engine-version salt (empty: EngineSalt()).
	// Callers deriving keys must mix Cache.Salt() into the preimage.
	Salt string
	// OnLookup, when set, observes every memory/disk lookup (hit and its
	// latency) — the feed for the memo_lookup latency histogram. It fires
	// per physical lookup and does not affect the Stats counters.
	OnLookup func(hit bool, d time.Duration)
}

// Stats is a point-in-time snapshot of the cache's counters and occupancy.
type Stats struct {
	// Hits counts cases served without simulating: from memory, from disk,
	// or by waiting on an identical in-flight case. Misses counts cases
	// that had to run.
	Hits, Misses int64
	// Evictions counts entries dropped to stay within MaxBytes — memory
	// LRU evictions, disk-budget deletions, and reload-time trims.
	Evictions int64
	// LoadErrors counts corrupt or mismatched persisted entries that were
	// skipped (and deleted) instead of served.
	LoadErrors int64
	// BytesWritten is the cumulative size of entries written to disk.
	BytesWritten int64
	// Entries / ResidentBytes describe the in-memory LRU; DiskEntries /
	// DiskBytes the entry directory.
	Entries       int
	ResidentBytes int64
	DiskEntries   int
	DiskBytes     int64
}

// Cache is the content-addressed result cache. All methods are safe for
// concurrent use; identical in-flight cases are collapsed by an internal
// singleflight Group so each unique case simulates at most once at a time.
type Cache struct {
	dir      string
	max      int64
	salt     string
	onLookup func(hit bool, d time.Duration)

	group Group

	hits, misses, evictions, loadErrors, bytesWritten atomic.Int64

	// mu guards the in-memory LRU (front = most recently used) and the
	// set of entry writes in flight, each closed when its write ends.
	mu      sync.Mutex
	ll      *list.List
	idx     map[string]*list.Element
	bytes   int64
	writing map[string]chan struct{}

	// dmu guards the disk-entry ledger (front = oldest write).
	dmu       sync.Mutex
	dl        *list.List
	didx      map[string]*list.Element
	diskBytes int64
}

type memEntry struct {
	hash string
	res  *trainer.Result
	size int64
}

type diskEntry struct {
	hash string
	size int64
}

// Open builds a Cache. With Options.Dir set the directory is created if
// missing and its existing entries are indexed — and, mirroring the job
// store's MaxRecords-at-reload rule, trimmed oldest-first down to MaxBytes
// right here, so restarting with a smaller budget takes effect immediately
// instead of only on the next insert.
func Open(o Options) (*Cache, error) {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.Salt == "" {
		o.Salt = EngineSalt()
	}
	c := &Cache{
		dir: o.Dir, max: o.MaxBytes, salt: o.Salt, onLookup: o.OnLookup,
		ll: list.New(), idx: map[string]*list.Element{}, writing: map[string]chan struct{}{},
		dl: list.New(), didx: map[string]*list.Element{},
	}
	if c.dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	if err := c.scan(); err != nil {
		return nil, err
	}
	return c, nil
}

// Salt returns the engine-version salt callers must mix into key preimages.
func (c *Cache) Salt() string { return c.salt }

// MaxBytes returns the configured budget.
func (c *Cache) MaxBytes() int64 { return c.max }

// path places an entry under a two-hex-char fan-out directory.
func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".memo")
}

// scan indexes the entry directory oldest-first and enforces MaxBytes at
// reload: entries beyond the budget are deleted before anything is served,
// and so are temp files a crash left between write and rename. (A process
// writing to the directory at that moment loses that one entry: its rename
// fails, which costs a future hit, never a wrong result.)
// File contents are validated lazily on first Get, not here — a corrupt
// entry costs a load error then, never a failed Open.
func (c *Cache) scan() error {
	type onDisk struct {
		hash  string
		size  int64
		mtime int64
	}
	var found []onDisk
	subs, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if !f.IsDir() && strings.HasSuffix(name, ".memo.tmp") {
				// A write cut short by a crash: never an entry, and
				// invisible to the disk budget, so delete it here.
				os.Remove(filepath.Join(c.dir, sub.Name(), name))
				continue
			}
			if f.IsDir() || !strings.HasSuffix(name, ".memo") {
				continue
			}
			hash := strings.TrimSuffix(name, ".memo")
			if len(hash) != sha256.Size*2 || !strings.HasPrefix(hash, sub.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, onDisk{hash: hash, size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	// Oldest first (name tiebreak keeps the trim deterministic when a
	// filesystem's mtimes collide).
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].hash < found[j].hash
	})
	var total int64
	for _, f := range found {
		total += f.size
	}
	i := 0
	for total > c.max && i < len(found) {
		if err := os.Remove(c.path(found[i].hash)); err == nil || os.IsNotExist(err) {
			total -= found[i].size
			c.evictions.Add(1)
			i++
		} else {
			return fmt.Errorf("memo: trim: %w", err)
		}
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for _, f := range found[i:] {
		c.didx[f.hash] = c.dl.PushBack(diskEntry{hash: f.hash, size: f.size})
		c.diskBytes += f.size
	}
	return nil
}

// Get looks a key up, counting the outcome. Prefer Do on execution paths —
// it also collapses identical in-flight cases.
func (c *Cache) Get(key Key) (*trainer.Result, bool) {
	if res, ok := c.lookup(key); ok {
		c.hits.Add(1)
		return res, true
	}
	c.misses.Add(1)
	return nil, false
}

// Peek is the first half of a lookup whose miss is produced elsewhere — a
// coordinator dispatches every missed cell of a grid together, so it
// cannot hold Do's flight open while a cell waits for the rest. A hit is
// counted and joins w to the entry's write if that is still in flight, as
// Do's hit does. A miss is not counted: the caller hands the result it
// then produces to Do, which counts it once, as a miss if the caller leads
// or as a hit if another caller published the entry first.
func (c *Cache) Peek(key Key, w *Writes) (*trainer.Result, bool) {
	res, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
		c.join(key.Hash, w)
	}
	return res, ok
}

// lookup checks memory then disk without touching the hit/miss counters.
func (c *Cache) lookup(key Key) (res *trainer.Result, ok bool) {
	if c.onLookup != nil {
		start := time.Now()
		defer func() { c.onLookup(ok, time.Since(start)) }()
	}
	return c.lookupInner(key)
}

func (c *Cache) lookupInner(key Key) (*trainer.Result, bool) {
	c.mu.Lock()
	if el, ok := c.idx[key.Hash]; ok {
		c.ll.MoveToFront(el)
		res := el.Value.(memEntry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key.Hash))
	if err != nil {
		if !os.IsNotExist(err) {
			c.loadErrors.Add(1)
		}
		// Another process may have trimmed the entry; keep the ledger honest.
		c.dropDisk(key.Hash, false)
		return nil, false
	}
	k, res, derr := DecodeEntry(b)
	if derr != nil || k.Hash != key.Hash {
		// Corrupt, truncated, or misfiled: never served. Count it, delete
		// it, and fall back to a miss (the case just re-simulates).
		c.loadErrors.Add(1)
		os.Remove(c.path(key.Hash))
		c.dropDisk(key.Hash, false)
		return nil, false
	}
	c.addMem(key.Hash, res, int64(len(b)))
	return res, true
}

// Put stores a result under key, in memory and (when persisted) on disk,
// enforcing MaxBytes on both; the entry is durable when Put returns. Errors
// are I/O only — an entry too large for the budget is silently not cached.
func (c *Cache) Put(key Key, res *trainer.Result) error {
	b, err := EncodeEntry(key, res)
	if err != nil {
		return err
	}
	size := int64(len(b))
	if size > c.max {
		return nil
	}
	if c.dir != "" {
		// Wait out an in-flight write of the same entry: two writers of
		// one path would share its temp file.
		done, mine := c.claim(key.Hash)
		for !mine {
			<-done
			done, mine = c.claim(key.Hash)
		}
		err := c.persist(key.Hash, b)
		c.release(key.Hash, done)
		if err != nil {
			return err
		}
	}
	c.addMem(key.Hash, res, size)
	return nil
}

// putBehind publishes a result to the in-memory LRU at once and writes its
// entry on a goroutine that w tracks, so the caller's next case overlaps
// the disk wait. A write of the same entry already in flight is joined,
// not repeated. A failed write only costs future hits; the result is good.
func (c *Cache) putBehind(key Key, res *trainer.Result, w *Writes) {
	b, err := EncodeEntry(key, res)
	size := int64(len(b))
	if err != nil || size > c.max {
		return
	}
	// Claim before publishing, so a caller served the entry from memory
	// finds the write to join.
	var done chan struct{}
	mine := false
	if c.dir != "" {
		done, mine = c.claim(key.Hash)
		w.add(done)
	}
	c.addMem(key.Hash, res, size)
	if !mine {
		return
	}
	go func() {
		_ = c.persist(key.Hash, b)
		c.release(key.Hash, done)
	}()
}

// persist writes one encoded entry crash-atomically and records it in the
// disk ledger. The caller holds the entry's claim.
func (c *Cache) persist(hash string, b []byte) error {
	path := c.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	if err := wal.AtomicWriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	c.bytesWritten.Add(int64(len(b)))
	c.addDisk(hash, int64(len(b)))
	return nil
}

// claim registers a write of hash. mine reports that no other write of it
// was in flight and the caller must write, then release; otherwise done is
// the in-flight write's, closed when it finishes.
func (c *Cache) claim(hash string) (done chan struct{}, mine bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if done, ok := c.writing[hash]; ok {
		return done, false
	}
	done = make(chan struct{})
	c.writing[hash] = done
	return done, true
}

// release ends a claimed write.
func (c *Cache) release(hash string, done chan struct{}) {
	c.mu.Lock()
	delete(c.writing, hash)
	c.mu.Unlock()
	close(done)
}

// join makes w wait for an in-flight write of hash, if there is one: a
// caller served an entry that is still being written is not done with it
// until the entry is durable.
func (c *Cache) join(hash string, w *Writes) {
	c.mu.Lock()
	done, ok := c.writing[hash]
	c.mu.Unlock()
	if ok {
		w.add(done)
	}
}

// addMem inserts into the LRU and evicts from the tail past MaxBytes.
func (c *Cache) addMem(hash string, res *trainer.Result, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[hash]; ok {
		c.bytes += size - el.Value.(memEntry).size
		el.Value = memEntry{hash: hash, res: res, size: size}
		c.ll.MoveToFront(el)
	} else {
		c.idx[hash] = c.ll.PushFront(memEntry{hash: hash, res: res, size: size})
		c.bytes += size
	}
	for c.bytes > c.max && c.ll.Len() > 1 {
		tail := c.ll.Back()
		e := tail.Value.(memEntry)
		c.ll.Remove(tail)
		delete(c.idx, e.hash)
		c.bytes -= e.size
		c.evictions.Add(1)
	}
}

// addDisk records a written entry and deletes oldest entries past MaxBytes.
func (c *Cache) addDisk(hash string, size int64) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if el, ok := c.didx[hash]; ok {
		c.diskBytes += size - el.Value.(diskEntry).size
		el.Value = diskEntry{hash: hash, size: size}
		c.dl.MoveToBack(el)
	} else {
		c.didx[hash] = c.dl.PushBack(diskEntry{hash: hash, size: size})
		c.diskBytes += size
	}
	for c.diskBytes > c.max && c.dl.Len() > 1 {
		front := c.dl.Front()
		e := front.Value.(diskEntry)
		c.dl.Remove(front)
		delete(c.didx, e.hash)
		c.diskBytes -= e.size
		os.Remove(c.path(e.hash))
		c.evictions.Add(1)
	}
}

// dropDisk forgets a disk entry; when evict is true the drop counts as an
// eviction (it was a policy decision, not a corruption cleanup).
func (c *Cache) dropDisk(hash string, evict bool) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if el, ok := c.didx[hash]; ok {
		c.diskBytes -= el.Value.(diskEntry).size
		c.dl.Remove(el)
		delete(c.didx, hash)
		if evict {
			c.evictions.Add(1)
		}
	}
}

// Do returns the memoized result for key, or runs fn exactly once among
// all concurrent callers with the same key and caches its result. hit
// reports whether the result arrived without this caller simulating
// (cache, or waiting on another caller's identical in-flight case). A
// leader's error is returned to the leader but never cached — a waiting
// caller retries rather than inheriting, say, the leader's cancellation.
//
// A miss's result is published in memory and Do returns at once; the
// entry write runs behind it, tracked by w, whose Wait blocks until the
// write has ended. A hit on an entry whose write is still in flight joins
// w to that write too. Put is the synchronous alternative.
func (c *Cache) Do(ctx context.Context, key Key, w *Writes, fn func() (*trainer.Result, error)) (res *trainer.Result, hit bool, err error) {
	if res, ok := c.Peek(key, w); ok {
		return res, true, nil
	}
	var led bool
	res, _, err = c.group.Do(ctx, key.Hash, func() (*trainer.Result, error) {
		// Re-check under leadership: a previous leader may have populated
		// the cache between our miss and our flight.
		if r, ok := c.lookup(key); ok {
			return r, nil
		}
		led = true
		c.misses.Add(1)
		r, err := fn()
		if err == nil {
			c.putBehind(key, r, w)
		}
		return r, err
	})
	if err != nil {
		return nil, false, err
	}
	if !led {
		c.hits.Add(1)
		c.join(key.Hash, w)
		return res, true, nil
	}
	return res, false, nil
}

// Writes tracks the entry writes that one caller's Do calls left running,
// so the caller can wait until every write of an entry it wrote or was
// served has ended. Use one per grid, not one per Cache: callers sharing a cache
// each wait for their own writes only. The zero value is ready to use.
type Writes struct {
	mu      sync.Mutex
	pending []chan struct{}
}

func (w *Writes) add(done chan struct{}) {
	w.mu.Lock()
	w.pending = append(w.pending, done)
	w.mu.Unlock()
}

// Len reports how many writes w has tracked and not yet waited for.
func (w *Writes) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Wait blocks until every write w tracks has finished, successfully or
// not, and forgets them.
func (w *Writes) Wait() {
	for {
		w.mu.Lock()
		pending := w.pending
		w.pending = nil
		w.mu.Unlock()
		if len(pending) == 0 {
			return
		}
		for _, done := range pending {
			<-done
		}
	}
}

// Stats snapshots the counters and occupancy.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), LoadErrors: c.loadErrors.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
	c.mu.Lock()
	st.Entries = c.ll.Len()
	st.ResidentBytes = c.bytes
	c.mu.Unlock()
	c.dmu.Lock()
	st.DiskEntries = c.dl.Len()
	st.DiskBytes = c.diskBytes
	c.dmu.Unlock()
	return st
}
