package pps

// This file is the hash-consing layer of the exploration: every PPS is
// identified by a canonical byte encoding of its (ASN, state-table,
// counter-vector) triple, compressed to a 64-bit FNV-1a key. The
// interner maps that key to the canonical *PPS, so the §III-C merge rule
// ("states with identical ASN and state table are folded") is one hash
// lookup instead of a string-map probe, and the same key doubles as the
// cycle/visited identity used by the worklist.
//
// Only the single-threaded commit loop (parallel.go) and the MHP
// explorer touch the table, which is what keeps state IDs, merge counts
// and warning order deterministic; it therefore needs no locking.

// interner is the hash-consing table: 64-bit canonical key → canonical
// *PPS, with full-key comparison on hash collisions so a collision can
// never merge two genuinely different states.
type interner struct {
	m map[uint64][]*PPS
}

func newInterner() *interner {
	return &interner{m: make(map[uint64][]*PPS)}
}

// lookup returns the canonical PPS for the key, or nil.
func (it *interner) lookup(h uint64, key []byte) *PPS {
	for _, p := range it.m[h] {
		if bytesEqual(p.ckey, key) {
			return p
		}
	}
	return nil
}

// insert registers p as the canonical state for its key. The caller
// guarantees a prior lookup miss for the same key.
func (it *interner) insert(p *PPS) {
	it.m[p.hkey] = append(it.m[p.hkey], p)
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FNV-1a parameters for the 64-bit canonical key.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// canonicalKey builds the canonical byte encoding of the state's
// merge identity — sync-node IDs of the ASN (entries are sorted), the
// state-table words, and the counter vector — plus its 64-bit FNV-1a
// hash. OV/SV/Visited are deliberately excluded: they are what merging
// folds, not what identifies a state.
func canonicalKey(p *PPS) (uint64, []byte) {
	buf := make([]byte, 0, len(p.Entries)*4+len(p.Counters)+18)
	for _, en := range p.Entries {
		id := en.Sync.ID
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	buf = append(buf, '|')
	buf = p.State.AppendKey(buf)
	if len(p.Counters) > 0 {
		buf = append(buf, '|')
		buf = append(buf, p.Counters...)
	}
	h := uint64(fnvOffset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h, buf
}
