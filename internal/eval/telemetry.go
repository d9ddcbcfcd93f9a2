package eval

import (
	"fmt"
	"sort"
	"strings"

	"uafcheck/internal/obs"
)

// patternNames returns the generator patterns in sorted order.
func (d *Details) patternNames() []string {
	names := make([]string, 0, len(d.PerPattern))
	for n := range d.PerPattern {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FormatTelemetry renders the aggregate corpus telemetry: one row per
// pattern with timing and state aggregates, then the states-created
// histogram across all cases, one row per populated log2 bucket.
func (d *Details) FormatTelemetry() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %7s %10s %10s %11s %10s\n",
		"pattern", "cases", "total-ms", "mean-us", "mean-states", "max-states")
	var cases int
	var totalMicros int64
	var all obs.Histogram
	for _, n := range d.patternNames() {
		ps := d.PerPattern[n]
		micros := ps.TotalTime.Microseconds()
		var meanMicros, meanStates float64
		if ps.Cases > 0 {
			meanMicros = float64(micros) / float64(ps.Cases)
			meanStates = float64(ps.States.Sum) / float64(ps.Cases)
		}
		fmt.Fprintf(&b, "%-22s %7d %10.1f %10.1f %11.1f %10d\n",
			n, ps.Cases, float64(micros)/1000, meanMicros, meanStates, ps.MaxStates)
		cases += ps.Cases
		totalMicros += micros
		all.Merge(ps.States)
	}
	fmt.Fprintf(&b, "%-22s %7d %10.1f\n", "TOTAL", cases, float64(totalMicros)/1000)

	b.WriteString("states-created histogram (cases per bucket):\n")
	var maxCount int64
	for _, c := range all.Buckets {
		maxCount = max(maxCount, c)
	}
	for i, c := range all.Buckets {
		if c == 0 {
			continue
		}
		label := fmt.Sprint(obs.HistBucketUpper(i))
		if i > 1 {
			label = fmt.Sprintf("%d-%d", obs.HistBucketUpper(i-1)+1, obs.HistBucketUpper(i))
		}
		fmt.Fprintf(&b, "  %-10s %6d %s\n", label, c, strings.Repeat("#", int(1+c*40/maxCount)))
	}
	return b.String()
}
