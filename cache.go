package uafcheck

import (
	"encoding/json"

	"uafcheck/internal/analysis"
	"uafcheck/internal/cache"
)

// Cache memoizes complete analysis reports by content address: the
// SHA-256 of (tool Version, file name, source text, effective analysis
// options). A hit is correct by construction — changing any input
// changes the key — so there is no invalidation protocol and no
// staleness. Degraded reports are never stored; see WithCache.
//
// A Cache is safe for concurrent use and may be shared across analysis
// calls, batches and goroutines. Every value crosses the cache boundary
// through Report.Clone, so callers can mutate what they get back.
type Cache struct {
	c *cache.Cache[*Report]
}

// CacheConfig sizes a Cache.
type CacheConfig struct {
	// MaxEntries bounds the in-memory LRU layer (<= 0 means the library
	// default of 1024 entries).
	MaxEntries int
	// Dir, when non-empty, enables a persistent on-disk layer (one JSON
	// file per key) shared by concurrent processes and surviving
	// restarts. Writes are temp-file + rename, reads of corrupt entries
	// degrade to misses.
	Dir string
	// AsyncDiskWrites, when > 0, queues disk-tier writes on a bounded
	// background queue of this depth instead of writing synchronously on
	// the analysis path — the configuration the uafserve daemon uses so
	// request latency never includes cache serialization or I/O. Writes
	// that find the queue full are dropped (CacheStats.DroppedWrites);
	// call Flush to checkpoint and Close at shutdown. Ignored when Dir
	// is empty.
	AsyncDiskWrites int
}

// CacheStats counts cache traffic (hits, disk hits, misses, stores,
// evictions, disk errors, quarantined entries).
type CacheStats = cache.Stats

// CacheRecoverStats summarizes one Cache.Recover pass over the disk
// tier: entries scanned, entries that validated, corrupt entries
// quarantined, and leftover temp files swept.
type CacheRecoverStats = cache.RecoverStats

// NewCache creates an analysis report cache.
func NewCache(cfg CacheConfig) *Cache {
	codec := cache.Codec[*Report]{
		Encode: func(r *Report) ([]byte, error) { return json.Marshal(r) },
		Decode: func(b []byte) (*Report, error) {
			r := &Report{}
			if err := json.Unmarshal(b, r); err != nil {
				return nil, err
			}
			return r, nil
		},
		Clone: (*Report).Clone,
	}
	cc := &Cache{c: cache.New(codec, cfg.MaxEntries, cfg.Dir)}
	if cfg.AsyncDiskWrites > 0 {
		cc.c.StartAsyncDisk(cfg.AsyncDiskWrites)
	}
	return cc
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats { return c.c.Stats() }

// Recover validates every entry in the disk tier — the startup
// crash-recovery scan. Corrupt entries (torn writes, bit rot,
// truncation, pre-checksum legacy files) are moved into a quarantine/
// subdirectory instead of being served later, and temp files orphaned
// by a crashed writer are removed. Long-running processes (uafserve)
// call this once before taking traffic. A no-op without a disk tier.
func (c *Cache) Recover() CacheRecoverStats { return c.c.RecoverDisk() }

// DiskState classifies the disk tier for health surfaces: "off" (no
// directory configured), "ok", or "disabled" (the tier turned itself
// off after too many consecutive write failures).
func (c *Cache) DiskState() string { return c.c.DiskState() }

// Len returns the number of in-memory entries.
func (c *Cache) Len() int { return c.c.Len() }

// Flush blocks until every queued asynchronous disk write has reached
// the filesystem. A no-op for synchronous caches.
func (c *Cache) Flush() { c.c.Flush() }

// Close drains the asynchronous write queue and stops its background
// writer; the cache stays usable (later stores write synchronously).
// uafserve calls this as the last step of graceful shutdown, after the
// admission gate has drained.
func (c *Cache) Close() { c.c.Close() }

func (c *Cache) get(k cache.Key) (*Report, bool) { return c.c.Get(k) }

func (c *Cache) put(k cache.Key, r *Report) { c.c.Put(k, r) }

// reportKey is the content address of one file's analysis: everything
// that determines the report participates, and nothing else —
// Parallelism in particular is excluded because results are identical
// across worker counts, so sequential and parallel runs share entries.
func reportKey(filename, src string, in analysis.Options) cache.Key {
	return cache.KeyOf("uafcheck/report", Version, filename, src, in.Fingerprint())
}
