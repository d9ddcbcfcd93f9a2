package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// ---------------------------------------------------------------- text

// FormatText renders the snapshot for humans: phase timings from the
// phase_ns histograms (pipeline order; a phase that ran more than once
// adds its run count and bucket p50 and p90), then counters, gauges and
// the other histograms sorted by name. Each phase appears once: the
// phase_ns family is not repeated among the histograms.
func (m Metrics) FormatText() string {
	var b strings.Builder
	if phases := m.phaseNames(); len(phases) > 0 {
		b.WriteString("phase timings:\n")
		for _, name := range phases {
			h := m.Hists[phaseHistKey(name)]
			runs := ""
			if h.Count > 1 {
				runs = fmt.Sprintf("  (%d runs)  p50=%s p90=%s", h.Count,
					formatDur(time.Duration(h.Quantile(0.5))), formatDur(time.Duration(h.Quantile(0.9))))
			}
			fmt.Fprintf(&b, "  %-14s %12s%s\n", name, formatDur(time.Duration(h.Sum)), runs)
		}
	}
	if len(m.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, n := range m.CounterNames() {
			fmt.Fprintf(&b, "  %-28s %10d\n", n, m.Counters[n])
		}
	}
	if len(m.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, n := range m.GaugeNames() {
			fmt.Fprintf(&b, "  %-28s %10d\n", n, m.Gauges[n])
		}
	}
	var hists []string
	for _, n := range m.HistNames() {
		if family, _ := SplitHistKey(n); family != HistPhaseNS {
			hists = append(hists, n)
		}
	}
	if len(hists) > 0 {
		b.WriteString("histograms:\n")
		for _, n := range hists {
			h := m.Hists[n]
			fmt.Fprintf(&b, "  %-28s count=%d sum=%d p50=%.0f p90=%.0f p99=%.0f\n",
				n, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
		}
	}
	return b.String()
}

// formatDur trims a duration to a readable precision.
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// ---------------------------------------------------------------- jsonl

// jsonlRecord is the line schema of WriteJSONL. Request-tree spans are
// "trace_span" lines carrying their trace/span/parent IDs; histograms
// are "hist" lines with sparse [bucket, count] pairs.
type jsonlRecord struct {
	Type    string            `json:"type"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us,omitempty"`
	DurUS   int64             `json:"dur_us,omitempty"`
	Value   int64             `json:"value,omitempty"`
	TraceID string            `json:"trace_id,omitempty"`
	SpanID  string            `json:"span_id,omitempty"`
	Parent  string            `json:"parent_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Count   int64             `json:"count,omitempty"`
	Sum     int64             `json:"sum,omitempty"`
	Buckets [][2]int64        `json:"buckets,omitempty"`
}

// WriteJSONL writes one JSON object per line: each trace span, then
// each counter, gauge and histogram. Successive calls on one writer
// append, making the output a trace file that accumulates across
// analyzed inputs.
func (m Metrics) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range m.Trace {
		rec := jsonlRecord{
			Type:    "trace_span",
			Name:    sp.Name,
			StartUS: sp.Start.Microseconds(),
			DurUS:   sp.Dur.Microseconds(),
			TraceID: sp.TraceID,
			SpanID:  sp.SpanID,
			Parent:  sp.Parent,
			Attrs:   sp.Attrs,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, n := range m.CounterNames() {
		if err := enc.Encode(jsonlRecord{Type: "counter", Name: n, Value: m.Counters[n]}); err != nil {
			return err
		}
	}
	for _, n := range m.GaugeNames() {
		if err := enc.Encode(jsonlRecord{Type: "gauge", Name: n, Value: m.Gauges[n]}); err != nil {
			return err
		}
	}
	for _, n := range m.HistNames() {
		h := m.Hists[n]
		rec := jsonlRecord{Type: "hist", Name: n, Count: h.Count, Sum: h.Sum}
		for i, c := range h.Buckets {
			if c != 0 {
				rec.Buckets = append(rec.Buckets, [2]int64{int64(i), c})
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------- prom

// WritePrometheus writes Prometheus text exposition format. Metric
// names are prefixed "uafcheck_" and dots become underscores; phase
// timings are the uafcheck_phase_ns{phase="..."} histogram family.
func (m Metrics) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, n := range m.CounterNames() {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, m.Counters[n])
	}
	for _, n := range m.GaugeNames() {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, m.Gauges[n])
	}
	writePromHists(&b, m)
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHists renders Metrics.Hists as Prometheus histogram
// families: keys sharing a family (the part before '|') become one
// metric name, their label suffixes become label sets, and the fixed
// log2 buckets become cumulative `le` series with exact power-of-two
// bounds (le="2^i - 1"). Output order is deterministic: families
// sorted, label sets sorted within a family.
func writePromHists(b *strings.Builder, m Metrics) {
	if len(m.Hists) == 0 {
		return
	}
	byFamily := make(map[string][]string)
	var families []string
	for _, key := range m.HistNames() { // sorted, so per-family key order is sorted too
		family, _ := SplitHistKey(key)
		if _, ok := byFamily[family]; !ok {
			families = append(families, family)
		}
		byFamily[family] = append(byFamily[family], key)
	}
	sort.Strings(families)
	for _, family := range families {
		pn := promName(family)
		fmt.Fprintf(b, "# TYPE %s histogram\n", pn)
		for _, key := range byFamily[family] {
			h := m.Hists[key]
			_, labels := SplitHistKey(key)
			base := promLabelPrefix(labels)
			// Emit buckets up to the highest populated index; +Inf
			// carries the rest. Indexes >= 63 share the MaxInt64 bound,
			// so they fold into +Inf instead of duplicating an le.
			top := 0
			for i, c := range h.Buckets {
				if c != 0 {
					top = i
				}
			}
			if top > 62 {
				top = 62
			}
			var cum int64
			for i := 0; i <= top; i++ {
				cum += h.Buckets[i]
				fmt.Fprintf(b, "%s_bucket{%sle=\"%d\"} %d\n", pn, base, HistBucketUpper(i), cum)
			}
			fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", pn, base, h.Count)
			if len(labels) == 0 {
				fmt.Fprintf(b, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
			} else {
				lbl := strings.TrimSuffix(base, ",")
				fmt.Fprintf(b, "%s_sum{%s} %d\n%s_count{%s} %d\n", pn, lbl, h.Sum, pn, lbl, h.Count)
			}
		}
	}
}

// promLabelPrefix renders labels as `k1="v1",k2="v2",` (trailing comma
// so an `le` label can append), with values escaped per the text
// exposition format.
func promLabelPrefix(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, kv := range labels {
		b.WriteString(promLabelName(kv[0]))
		b.WriteString("=\"")
		b.WriteString(promEscape(kv[1]))
		b.WriteString("\",")
	}
	return b.String()
}

// promLabelName sanitizes a label name to [a-zA-Z_][a-zA-Z0-9_]*.
func promLabelName(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promEscape escapes a label value per the Prometheus text format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// promName prefixes a metric name with "uafcheck_" and turns its dots
// into underscores.
func promName(name string) string {
	return "uafcheck_" + strings.ReplaceAll(name, ".", "_")
}
