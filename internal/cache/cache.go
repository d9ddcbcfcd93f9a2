// Package cache provides a content-addressed result cache: values are
// stored under a SHA-256 key derived from everything that determines
// them (source text, effective options, tool version), so a hit is
// correct by construction — any input change produces a different key
// and a clean miss, and no invalidation protocol is needed.
//
// The cache is generic over its value type so higher layers can store
// their own types (the public package instantiates it with *Report)
// without this package importing them. Two storage tiers:
//
//   - an in-memory LRU holding decoded values, bounded by entry count;
//   - an optional on-disk layer (one checksummed file per key, written
//     with a temp-file rename) that survives process restarts and is
//     shared by concurrent processes.
//
// The disk tier is crash-safe: every entry carries a header with a
// SHA-256 checksum of its payload, verified on every read. A corrupt
// entry — torn write, bit rot, truncation, a concurrent writer dying
// mid-rename — is never decoded and never crashes the reader; it is
// quarantined (moved aside under quarantine/) and the lookup degrades
// to a miss, so the worst a bad disk can do is force a recompute.
// RecoverDisk runs the same validation over the whole directory at
// startup. Write failures are counted, and after
// MaxConsecutiveDiskFailures in a row the disk tier disables itself
// with a one-time log instead of hammering a dead disk forever.
//
// Every returned value is cloned through the Codec, so callers may
// freely mutate what they get back without corrupting the cache.
package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"sync"
)

// Key is a content address: the SHA-256 of the inputs that determine
// the cached value.
type Key [sha256.Size]byte

// KeyOf hashes the given chunks into a Key. Chunks are length-prefix
// separated so ("ab","c") and ("a","bc") cannot collide.
func KeyOf(chunks ...string) Key {
	h := sha256.New()
	var lenbuf [8]byte
	for _, c := range chunks {
		n := len(c)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write([]byte(c))
	}
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// String returns the hex form of the key (also the disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Codec says how to serialize and defensively copy cached values. All
// three functions must be safe for concurrent use.
type Codec[V any] struct {
	// Encode serializes a value for the disk layer.
	Encode func(V) ([]byte, error)
	// Decode deserializes a disk entry.
	Decode func([]byte) (V, error)
	// Clone deep-copies a value; Get and Put clone through this so the
	// cache's copy is never aliased by callers.
	Clone func(V) V
}

// Stats counts cache traffic. Retrieved via Cache.Stats.
type Stats struct {
	Hits      int64 // in-memory hits
	DiskHits  int64 // misses served by the disk layer (subset of Hits)
	Misses    int64
	Stores    int64
	Evictions int64
	// DroppedWrites counts async disk writes discarded because the write
	// queue was full (StartAsyncDisk). The in-memory entry is unaffected;
	// only persistence across restarts is lost for those entries.
	DroppedWrites int64
	// DiskErrors counts disk-tier I/O failures: failed entry writes and
	// failed (non-ENOENT) entry reads. Corruption detected by the
	// checksum counts under Quarantined, not here.
	DiskErrors int64
	// Quarantined counts corrupt disk entries moved aside (by a read, or
	// by RecoverDisk) instead of being served or crashed on.
	Quarantined int64
}

// Cache is a bounded LRU keyed by content address, with an optional
// write-through disk tier. Safe for concurrent use.
type Cache[V any] struct {
	codec      Codec[V]
	maxEntries int
	dir        string // "" disables the disk tier

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
	stats Stats
	// consecFails counts consecutive disk write failures; at
	// MaxConsecutiveDiskFailures the disk tier turns itself off
	// (diskDisabled) with a one-time warning log.
	consecFails  int
	diskDisabled bool

	// Async disk tier (StartAsyncDisk): jobs feed a single background
	// writer; pending tracks enqueued-but-unwritten entries for Flush.
	// Enqueues happen under mu (non-blocking sends to a buffered
	// channel), so Close can atomically cut off producers before closing
	// the channel.
	async   chan diskJob[V]
	pending sync.WaitGroup
	done    chan struct{}
}

// diskJob is one queued async disk write. The value is the cache's own
// immutable copy; encoding happens on the writer goroutine so Put never
// pays serialization latency in async mode.
type diskJob[V any] struct {
	key Key
	val V
}

type entry[V any] struct {
	key Key
	val V
}

// DefaultMaxEntries bounds the in-memory layer when the caller passes
// maxEntries <= 0.
const DefaultMaxEntries = 1024

// New creates a cache. maxEntries bounds the in-memory LRU (<= 0 means
// DefaultMaxEntries); dir, when non-empty, enables the disk tier in
// that directory, created on first store.
func New[V any](codec Codec[V], maxEntries int, dir string) *Cache[V] {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache[V]{
		codec:      codec,
		maxEntries: maxEntries,
		dir:        dir,
		ll:         list.New(),
		items:      make(map[Key]*list.Element),
	}
}

// Get returns a clone of the value stored under k. A memory miss falls
// through to the disk layer (when configured) and promotes the decoded
// value into memory.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		v := c.codec.Clone(el.Value.(*entry[V]).val)
		c.stats.Hits++
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	if c.diskActive() {
		if v, ok := c.readDisk(k); ok {
			c.mu.Lock()
			c.insertLocked(k, v)
			c.stats.Hits++
			c.stats.DiskHits++
			out := c.codec.Clone(v)
			c.mu.Unlock()
			return out, true
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	var zero V
	return zero, false
}

// Put stores a clone of v under k in memory and (best-effort) on disk.
// Disk write failures never fail the call — the cache is an
// accelerator, never a correctness dependency — but they are no longer
// silent: each one counts in Stats.DiskErrors, and after
// MaxConsecutiveDiskFailures in a row the disk tier disables itself
// with a one-time warning log (subsequent Puts skip the disk entirely).
// With StartAsyncDisk active, the disk write is queued and performed by
// the background writer instead of blocking the caller.
func (c *Cache[V]) Put(k Key, v V) {
	v = c.codec.Clone(v)
	c.mu.Lock()
	c.insertLocked(k, v)
	c.stats.Stores++
	disk := c.dir != "" && !c.diskDisabled
	enqueued := false
	if disk && c.async != nil {
		enqueued = true
		c.pending.Add(1)
		select {
		case c.async <- diskJob[V]{key: k, val: v}:
		default:
			// Queue full: the write is dropped, not blocked on. The
			// in-memory entry stays; only restart persistence is lost.
			c.pending.Done()
			c.stats.DroppedWrites++
		}
	}
	c.mu.Unlock()

	if !disk || enqueued {
		return
	}
	c.noteWrite(c.writeDisk(k, v))
}

// MaxConsecutiveDiskFailures is how many disk writes must fail in a row
// before the disk tier turns itself off. One success resets the streak.
const MaxConsecutiveDiskFailures = 8

// noteWrite folds one disk write outcome into the failure accounting:
// success resets the consecutive-failure streak, failure counts it and
// — at MaxConsecutiveDiskFailures — disables the disk tier with a
// one-time warning. The in-memory tier is unaffected either way.
func (c *Cache[V]) noteWrite(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		c.consecFails = 0
		return
	}
	c.stats.DiskErrors++
	c.consecFails++
	if c.consecFails >= MaxConsecutiveDiskFailures && !c.diskDisabled {
		c.diskDisabled = true
		slog.Warn("cache: disk tier disabled after consecutive write failures",
			"failures", c.consecFails, "dir", c.dir, "err", err)
	}
}

// diskActive reports whether the disk tier exists and has not disabled
// itself.
func (c *Cache[V]) diskActive() bool {
	if c.dir == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.diskDisabled
}

// DiskState classifies the disk tier for health surfaces: "off" (no
// directory configured), "ok", or "disabled" (too many consecutive
// write failures; see MaxConsecutiveDiskFailures).
func (c *Cache[V]) DiskState() string {
	if c.dir == "" {
		return "off"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.diskDisabled {
		return "disabled"
	}
	return "ok"
}

// writeDisk serializes v into the checksummed envelope and writes it to
// the disk tier.
func (c *Cache[V]) writeDisk(k Key, v V) error {
	data, err := c.codec.Encode(v)
	if err != nil {
		return err
	}
	return c.writeEntry(k, encodeEntry(data))
}

// ------------------------------------------------- disk entry envelope

// diskMagic versions the on-disk entry envelope. Entries not carrying
// it (including pre-checksum legacy files) are treated as corrupt and
// quarantined; they recompute once and re-persist in the new format.
const diskMagic = "uafcache1"

// encodeEntry wraps a payload in the checksummed envelope:
//
//	uafcache1 <64-hex sha256(payload)>\n<payload>
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	b.Grow(len(diskMagic) + 1 + hex.EncodedLen(len(sum)) + 1 + len(payload))
	b.WriteString(diskMagic)
	b.WriteByte(' ')
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('\n')
	b.Write(payload)
	return b.Bytes()
}

// decodeEntry validates the envelope and returns the payload. Any
// deviation — missing or malformed header, checksum mismatch,
// truncation — is an error; callers quarantine on it.
func decodeEntry(raw []byte) ([]byte, error) {
	header, payload, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("cache: entry has no header line")
	}
	magic, sumHex, ok := bytes.Cut(header, []byte{' '})
	if !ok || string(magic) != diskMagic {
		return nil, fmt.Errorf("cache: entry header %q is not %q", header, diskMagic)
	}
	want, err := hex.DecodeString(string(sumHex))
	if err != nil || len(want) != sha256.Size {
		return nil, fmt.Errorf("cache: malformed entry checksum %q", sumHex)
	}
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], want) {
		return nil, fmt.Errorf("cache: entry checksum mismatch (torn write or corruption)")
	}
	return payload, nil
}

// readDisk loads and validates one disk entry. I/O errors other than a
// missing file count as DiskErrors; validation or decode failures
// quarantine the entry. Both degrade to a miss.
func (c *Cache[V]) readDisk(k Key) (V, bool) {
	var zero V
	raw, err := c.readEntry(k)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
		}
		return zero, false
	}
	payload, err := decodeEntry(raw)
	if err == nil {
		v, derr := c.codec.Decode(payload)
		if derr == nil {
			return v, true
		}
		err = derr
	}
	c.quarantine(c.entryPath(k))
	c.mu.Lock()
	c.stats.Quarantined++
	c.mu.Unlock()
	slog.Warn("cache: quarantined corrupt entry",
		"entry", k.String(), "dir", c.dir, "cause", err)
	return zero, false
}

// QuarantineDir is the subdirectory corrupt entries are moved into,
// preserved for post-mortem inspection instead of deleted.
const QuarantineDir = "quarantine"

// RecoverStats summarizes one RecoverDisk pass.
type RecoverStats struct {
	// Scanned counts entry files examined.
	Scanned int
	// OK counts entries that validated (checksum and decode).
	OK int
	// Quarantined counts corrupt entries moved aside.
	Quarantined int
	// TempFiles counts leftover put-* temp files (a writer crashed
	// mid-write before its rename) that were swept.
	TempFiles int
}

// RecoverDisk validates every entry in the disk tier — the startup
// crash-recovery scan. Corrupt entries are quarantined, orphaned temp
// files from interrupted writes are removed, and valid entries are left
// in place (not promoted to memory; they load on first Get). A no-op
// without a disk tier.
func (c *Cache[V]) RecoverDisk() RecoverStats {
	if c.dir == "" {
		return RecoverStats{}
	}
	rs := c.scanDir(func(env []byte) error {
		payload, err := decodeEntry(env)
		if err != nil {
			return err
		}
		if _, derr := c.codec.Decode(payload); derr != nil {
			return fmt.Errorf("cache: entry payload does not decode")
		}
		return nil
	})
	if rs.Quarantined > 0 {
		c.mu.Lock()
		c.stats.Quarantined += int64(rs.Quarantined)
		c.mu.Unlock()
		slog.Warn("cache: recovery quarantined corrupt entries",
			"dir", c.dir, "quarantined", rs.Quarantined)
	}
	return rs
}

// StartAsyncDisk switches the disk tier to asynchronous writes: Put
// enqueues entries on a bounded queue (depth entries, <= 0 means 256)
// drained by one background writer goroutine, so the analysis path
// never waits on serialization or I/O. When the queue is full the write
// is dropped (Stats.DroppedWrites) rather than applying backpressure.
//
// Call before the cache is shared between goroutines (typically right
// after New). No-op when the cache has no disk tier or async mode is
// already on. Pair with Flush at checkpoints and Close at shutdown.
func (c *Cache[V]) StartAsyncDisk(depth int) {
	if c.dir == "" {
		return
	}
	if depth <= 0 {
		depth = 256
	}
	c.mu.Lock()
	if c.async != nil {
		c.mu.Unlock()
		return
	}
	c.async = make(chan diskJob[V], depth)
	c.done = make(chan struct{})
	jobs, done := c.async, c.done
	c.mu.Unlock()
	go func() {
		defer close(done)
		for j := range jobs {
			c.noteWrite(c.writeDisk(j.key, j.val))
			c.pending.Done()
		}
	}()
}

// Flush blocks until every queued async disk write has reached the
// filesystem. A no-op for synchronous caches. Safe to call repeatedly
// and concurrently with Put (writes enqueued after Flush begins may or
// may not be covered).
func (c *Cache[V]) Flush() {
	c.pending.Wait()
}

// Close drains the async queue and stops the background writer. The
// cache stays fully usable afterwards — subsequent Puts simply fall
// back to synchronous disk writes. Safe to call more than once.
func (c *Cache[V]) Close() {
	c.mu.Lock()
	jobs, done := c.async, c.done
	c.async = nil // producers cut off atomically; later Puts write sync
	c.mu.Unlock()
	if jobs == nil {
		return
	}
	c.pending.Wait() // buffered jobs all written and Done'd
	close(jobs)
	<-done
}

// insertLocked adds or refreshes the in-memory entry and evicts from
// the LRU tail past maxEntries. Caller holds c.mu.
func (c *Cache[V]) insertLocked(k Key, v V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&entry[V]{key: k, val: v})
	for c.ll.Len() > c.maxEntries {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*entry[V]).key)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of in-memory entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
