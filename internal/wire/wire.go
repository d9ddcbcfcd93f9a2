// Package wire is the stable serialization layer shared by the
// uafserve daemon and the CLIs: one canonical JSON encoding of a
// per-file analysis outcome, plus a SARIF 2.1.0 projection of warning
// sets for code-scanning consumers.
//
// The canonical encoding is deliberately byte-stable: warnings are
// sorted into the presentation order of uafcheck.SortWarnings,
// map-backed fields rely on encoding/json's sorted map keys, and the
// volatile telemetry snapshot (wall-clock phase spans, cache traffic
// counters that differ between a pipeline run and a cache hit) is
// stripped unless explicitly requested. Consequently the bytes for a
// given (name, source, options) input are identical whether the report
// came from cmd/uafcheck, a live uafserve analysis, a singleflight
// follower, or the content-addressed cache — which is what makes
// responses deduplicable and byte-comparable across surfaces.
package wire

import (
	"encoding/json"

	"uafcheck"
	"uafcheck/internal/batch"
	"uafcheck/internal/pps"
)

// APIVersion is the wire-format version stamped into every Result
// envelope. It matches the uafserve route prefix ("/v1/..."): the
// envelope shape and the canonical byte encoding only change together
// with this string, so consumers can pin on it. See docs/SERVER.md for
// the compatibility policy.
const APIVersion = "v1"

// Result is the canonical per-file outcome DTO: the body of one
// uafserve /v1/analyze response, one line of a /v1/analyze-batch or
// /v1/delta NDJSON stream, and one line of `uafcheck -format=json`
// output.
type Result struct {
	// Name echoes the input file name.
	Name string `json:"name"`
	// APIVersion identifies the envelope format (always APIVersion).
	APIVersion string `json:"api_version"`
	// Status classifies the outcome with the batch-driver vocabulary:
	// "ok", "degraded", "timed-out", "crashed" or "error". Derived from
	// the report itself (see StatusOf) so every entry point agrees.
	Status string `json:"status"`
	// Error carries the frontend diagnostics for status "error".
	Error string `json:"error,omitempty"`
	// Report is the analysis report; nil only for status "error".
	Report *uafcheck.Report `json:"report,omitempty"`
	// Metrics optionally carries the telemetry snapshot (stripped from
	// the canonical encoding; populated only when the caller asked for
	// in-band metrics, which forfeits byte-stability).
	Metrics *uafcheck.Metrics `json:"metrics,omitempty"`
}

// StatusOf derives the canonical status string from a per-file outcome
// with internal/batch's rule: err (or no report) is "error", otherwise
// the degradation ladder reason picks the word.
func StatusOf(rep *uafcheck.Report, err error) string {
	if err != nil || rep == nil {
		return batch.Failed.String()
	}
	var reason pps.StopReason
	if rep.Degraded != nil {
		reason = pps.StopReason(rep.Degraded.Reason)
	}
	return batch.StatusFor(reason).String()
}

// NewResult builds the canonical Result for one file outcome. It
// shares the caller's report but for a copy of its warnings, which it
// sorts into presentation order, and strips its telemetry — unless
// includeMetrics is set, in which case a copy of the snapshot travels
// in the separate Metrics field and byte-stability across cache hits
// no longer holds. The caller's report is left unchanged.
func NewResult(name string, rep *uafcheck.Report, err error, includeMetrics bool) Result {
	res := Result{Name: name, APIVersion: APIVersion, Status: StatusOf(rep, err)}
	if err != nil {
		res.Error = err.Error()
	}
	if rep == nil {
		return res
	}
	cp := *rep
	cp.Warnings = append([]uafcheck.Warning(nil), rep.Warnings...)
	uafcheck.SortWarnings(cp.Warnings)
	if includeMetrics {
		m := rep.Metrics.Clone()
		res.Metrics = &m
	}
	cp.Metrics = uafcheck.Metrics{}
	res.Report = &cp
	return res
}

// Encode renders the Result as one compact JSON line (no trailing
// newline). Byte-stable for canonical results: encoding/json emits
// struct fields in declaration order and map keys sorted.
func (r Result) Encode() ([]byte, error) {
	return json.Marshal(r)
}
