package uafcheck_test

import (
	"context"
	"testing"

	"uafcheck"
	"uafcheck/internal/corpus"
)

// frontEndAllocCeiling bounds the allocations of one begin-free corpus
// file through AnalyzeContext: lexing, parsing, the table-free name
// check (sym.Check) and the report. It is the measured count (55.6)
// plus a little slack, so a change that gives back the front end's
// allocation savings fails here first; a full sym.Resolve on these
// files measures 68.6.
const frontEndAllocCeiling = 60

// TestFrontEndAllocations guards the path 96% of the Table I corpus
// takes: files without a begin stop after the name check.
func TestFrontEndAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short mode")
	}
	var files []corpus.TestCase
	for _, tc := range corpus.Generate(corpus.DefaultParams(1711)) {
		if !tc.HasBegin {
			files = append(files, tc)
		}
		if len(files) == 8 {
			break
		}
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		for _, tc := range files {
			rep, err := uafcheck.AnalyzeContext(ctx, tc.Name+".chpl", tc.Source)
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			if len(rep.Warnings) != 0 {
				t.Fatalf("%s: %d warnings from a begin-free file", tc.Name, len(rep.Warnings))
			}
		}
	}) / float64(len(files))
	t.Logf("%.1f allocations per begin-free file", allocs)
	if allocs > frontEndAllocCeiling {
		t.Errorf("%.1f allocations per begin-free file, ceiling %d", allocs, frontEndAllocCeiling)
	}
}
