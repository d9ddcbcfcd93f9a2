package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"uafcheck/internal/fault"
)

// ErrNotFound is the canonical miss: the backend has no entry under the
// key. Any other Fetch error is an I/O failure and counts as
// Stats.DiskErrors at the cache layer.
var ErrNotFound = errors.New("cache: entry not found")

// Backend is a pluggable blob store for enveloped cache entries — the
// persistence tier behind the in-memory LRU. Implementations move raw
// envelope bytes only; the checksummed envelope itself (encodeEntry /
// decodeEntry) is produced and verified by the Cache, so every backend
// gets the same crash-safety contract: a torn or corrupt entry is
// detected on read, quarantined via Discard, and degrades to a miss.
//
// All methods must be safe for concurrent use. Store failures are
// tolerated by the cache (counted, and the tier self-disables after
// MaxConsecutiveDiskFailures in a row); Fetch failures degrade to
// misses.
type Backend interface {
	// Name identifies the backend in logs and health rows.
	Name() string
	// Fetch returns the raw envelope bytes stored under k, or
	// ErrNotFound (possibly wrapped) for a clean miss.
	Fetch(k Key) ([]byte, error)
	// Store persists the envelope bytes under k.
	Store(k Key, env []byte) error
	// Discard removes the entry under k so it is never consulted again
	// — called by the cache when the envelope fails validation. cause
	// is the validation error, for backends that preserve evidence.
	// Best-effort: Discard never fails.
	Discard(k Key, cause error)
}

// RecoverableBackend is implemented by backends that support a startup
// crash-recovery scan over their whole store (the local directory
// backend). validate reports whether one envelope is intact.
type RecoverableBackend interface {
	Recover(validate func(env []byte) error) RecoverStats
}

// --------------------------------------------------------- DirBackend

// DirBackend stores one envelope file per key in a local directory —
// the disk tier extracted from the original cache implementation.
// Writes are temp-file + rename so concurrent readers never observe a
// partial entry; corrupt entries are moved into quarantine/ for
// post-mortem inspection instead of deleted. The fault-injection
// points cache.fs.read / cache.fs.write / cache.fs.rename /
// cache.fs.torn instrument this backend.
type DirBackend struct {
	dir string
}

// NewDirBackend creates a directory backend rooted at dir. The
// directory is created lazily on first store.
func NewDirBackend(dir string) *DirBackend {
	return &DirBackend{dir: dir}
}

// Name implements Backend.
func (d *DirBackend) Name() string { return "dir:" + d.dir }

func (d *DirBackend) path(k Key) string {
	return filepath.Join(d.dir, k.String()+".json")
}

// Fetch implements Backend: a plain file read, with ENOENT mapped to
// the canonical miss.
func (d *DirBackend) Fetch(k Key) ([]byte, error) {
	raw, err := os.ReadFile(d.path(k))
	if err == nil {
		err = fault.Err(fault.CacheRead)
	}
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, k.String())
		}
		return nil, err
	}
	return raw, nil
}

// Store implements Backend: temp-file + rename so a crash mid-write
// leaves only a put-* temp (swept by Recover) and a torn rename leaves
// an entry the envelope checksum rejects.
func (d *DirBackend) Store(k Key, env []byte) error {
	env = fault.Mangle(fault.CacheTorn, env)
	if err := fault.Err(fault.CacheWrite); err != nil {
		return err
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, "put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := fault.Err(fault.CacheRename); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, d.path(k)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Discard implements Backend: the entry is moved into quarantine/
// (falling back to deletion when the move itself fails) so it is never
// consulted again but stays available for post-mortem inspection.
func (d *DirBackend) Discard(k Key, cause error) {
	d.quarantinePath(d.path(k))
}

// quarantinePath moves one entry file aside. Never errors: the worst
// case (move and delete both fail) re-quarantines on the next read.
func (d *DirBackend) quarantinePath(path string) {
	qdir := filepath.Join(d.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err == nil {
			return
		}
	}
	os.Remove(path)
}

// Recover implements RecoverableBackend: validate every entry file,
// quarantine the corrupt ones, and sweep put-* temps orphaned by a
// writer that crashed before its rename.
func (d *DirBackend) Recover(validate func(env []byte) error) RecoverStats {
	var rs RecoverStats
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return rs
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(d.dir, name)
		if strings.HasPrefix(name, "put-") {
			os.Remove(path)
			rs.TempFiles++
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		rs.Scanned++
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if validate(raw) == nil {
			rs.OK++
			continue
		}
		d.quarantinePath(path)
		rs.Quarantined++
	}
	return rs
}
