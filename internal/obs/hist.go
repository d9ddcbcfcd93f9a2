package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// HistBuckets is the fixed bucket count of every Histogram. Bucket i
// holds values v with bits.Len64(v) == i: bucket 0 is exactly {0},
// bucket i (i >= 1) covers [2^(i-1), 2^i - 1]. 65 buckets span the full
// non-negative int64 range, so two histograms always have the same
// layout and merge bucket-wise without rebinning.
const HistBuckets = 65

// Histogram is a fixed-layout log2-bucket histogram of non-negative
// int64 observations (negative values clamp to 0). The zero value is
// ready to use. It is a plain value type: copying copies the counts,
// and Merge is a bucket-wise sum, which makes merging commutative and
// associative — the property that keeps aggregated metrics
// deterministic under any Parallelism and any merge order.
//
// Histogram itself is not synchronized; share one through a Recorder
// (Observe/ObserveHist) or guard it externally.
type Histogram struct {
	// Count is the total number of observations.
	Count int64
	// Sum is the exact sum of all observed values.
	Sum int64
	// Buckets[i] counts observations v with bits.Len64(v) == i.
	Buckets [HistBuckets]int64
}

// histBucket returns the bucket index for v (callers clamp v >= 0).
func histBucket(v int64) int { return bits.Len64(uint64(v)) }

// HistBucketUpper returns the inclusive upper bound of bucket i
// (2^i - 1; bucket 0's bound is 0). The last bucket's bound is MaxInt64.
func HistBucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	h.Buckets[histBucket(v)]++
}

// Merge folds other into h bucket-wise.
func (h *Histogram) Merge(other Histogram) {
	h.Count += other.Count
	h.Sum += other.Sum
	for i, c := range other.Buckets {
		h.Buckets[i] += c
	}
}

// Empty reports whether the histogram has no observations.
func (h Histogram) Empty() bool { return h.Count == 0 }

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the
// bucket containing the target rank and interpolating linearly inside
// its [lower, upper] value range. With log2 buckets the estimate is
// within a factor of two of the true value, which is all a statusz
// percentile needs.
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		next := seen + float64(c)
		if rank <= next || i == HistBuckets-1 {
			lo := float64(0)
			if i > 0 {
				lo = float64(int64(1) << uint(i-1))
			}
			hi := float64(HistBucketUpper(i))
			frac := (rank - seen) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		seen = next
	}
	return 0
}

// histJSON is the stable serialized form: sparse [bucket, count] pairs
// in ascending bucket order, so encoding is deterministic and
// marshal/unmarshal round trips are byte-identical.
type histJSON struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (h Histogram) MarshalJSON() ([]byte, error) {
	enc := histJSON{Count: h.Count, Sum: h.Sum}
	for i, c := range h.Buckets {
		if c != 0 {
			enc.Buckets = append(enc.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(enc)
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var dec histJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	*h = Histogram{Count: dec.Count, Sum: dec.Sum}
	for _, pair := range dec.Buckets {
		i := pair[0]
		if i < 0 || i >= HistBuckets {
			return fmt.Errorf("obs: histogram bucket index %d out of range", i)
		}
		h.Buckets[i] = pair[1]
	}
	return nil
}

// ---------------------------------------------------------------- naming

// Histogram name constants. Keys follow the counter convention (dotted
// families, dots become underscores in Prometheus) with one extension:
// a key may carry labels after a '|' separator as comma-joined k=v
// pairs, e.g. "server.request_ns|route=/v1/analyze". WritePrometheus
// folds every key of one family into a single labeled histogram
// family.
//
// Families ending in "_ns" record wall-clock durations in nanoseconds
// and are inherently nondeterministic; every other family records
// schedule-independent values and must stay byte-identical across runs
// and Parallelism levels (the determinism suite enforces this for
// pps.wave_size).
const (
	// HistWaveSize is the frontier size of each bulk-synchronous PPS
	// wave — the state-shape distribution §V's scaling story depends on.
	HistWaveSize = "pps.wave_size"
	// HistPhaseNS records one observation per completed phase span,
	// labeled with the phase name.
	HistPhaseNS = "phase_ns"
	// HistCacheLookupNS times content-addressed report cache lookups.
	HistCacheLookupNS = "cache.lookup_ns"
	// HistUnitLookupNS times per-procedure unit memo lookups of the
	// incremental engine.
	HistUnitLookupNS = "incr.unit_lookup_ns"
	// HistRequestNS is the per-route request latency family of the
	// uafserve daemon, labeled with the route.
	HistRequestNS = "server.request_ns"
)

// HistKey builds a "family|k=v,..." histogram key. Pairs must come as
// alternating key, value strings; they are joined in the given order.
func HistKey(family string, labels ...string) string {
	if len(labels) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('|')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	return b.String()
}

// SplitHistKey splits a histogram key into its family and label pairs.
func SplitHistKey(key string) (family string, labels [][2]string) {
	family, rest, ok := strings.Cut(key, "|")
	if !ok {
		return key, nil
	}
	for _, pair := range strings.Split(rest, ",") {
		k, v, _ := strings.Cut(pair, "=")
		labels = append(labels, [2]string{k, v})
	}
	return family, labels
}

// HistNondeterministic reports whether a histogram key belongs to a
// wall-clock family (name ending in "_ns") whose contents legitimately
// vary between runs. Determinism-sensitive consumers (report
// canonicalization, the determinism test suite) strip these.
func HistNondeterministic(key string) bool {
	family, _ := SplitHistKey(key)
	return strings.HasSuffix(family, "_ns")
}

// HistNames returns the histogram keys in sorted order.
func (m Metrics) HistNames() []string {
	names := make([]string, 0, len(m.Hists))
	for n := range m.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Hist returns the named histogram (zero value if absent).
func (m Metrics) Hist(name string) Histogram { return m.Hists[name] }
