package cache

import (
	"os"
	"path/filepath"
	"strings"

	"uafcheck/internal/fault"
)

// The disk tier stores one envelope file per key in the cache's
// directory. Writes are temp-file + rename so concurrent readers never
// observe a partial entry; corrupt entries are moved into quarantine/
// for post-mortem inspection instead of deleted. The fault-injection
// points cache.fs.read / cache.fs.write / cache.fs.rename /
// cache.fs.torn instrument these functions.

func (c *Cache[V]) entryPath(k Key) string {
	return filepath.Join(c.dir, k.String()+".json")
}

// readEntry returns the raw envelope stored under k; a missing entry
// is an os.IsNotExist error.
func (c *Cache[V]) readEntry(k Key) ([]byte, error) {
	raw, err := os.ReadFile(c.entryPath(k))
	if err == nil {
		err = fault.Err(fault.CacheRead)
	}
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// writeEntry persists env under k: temp-file + rename so a crash
// mid-write leaves only a put-* temp (swept by RecoverDisk) and a torn
// rename leaves an entry the envelope checksum rejects. The directory
// is created on first store.
func (c *Cache[V]) writeEntry(k Key, env []byte) error {
	env = fault.Mangle(fault.CacheTorn, env)
	if err := fault.Err(fault.CacheWrite); err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
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
	if err := os.Rename(name, c.entryPath(k)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// quarantine moves one entry file into quarantine/ (falling back to
// deletion when the move itself fails) so it is never consulted again
// but stays available for post-mortem inspection. Never errors: the
// worst case (move and delete both fail) re-quarantines on the next
// read.
func (c *Cache[V]) quarantine(path string) {
	qdir := filepath.Join(c.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err == nil {
			return
		}
	}
	os.Remove(path)
}

// scanDir validates every entry file, quarantines the corrupt ones, and
// sweeps put-* temps orphaned by a writer that crashed before its
// rename.
func (c *Cache[V]) scanDir(validate func(env []byte) error) RecoverStats {
	var rs RecoverStats
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return rs
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(c.dir, name)
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
		c.quarantine(path)
		rs.Quarantined++
	}
	return rs
}
