package eval

import (
	"testing"

	"uafcheck/internal/analysis"
	"uafcheck/internal/batch"
	"uafcheck/internal/corpus"
)

// TestParallelMatchesSequential: the batch-driver evaluation produces
// the exact same Table I and per-pattern breakdown as the sequential one,
// at every worker-pool size.
func TestParallelMatchesSequential(t *testing.T) {
	cases := corpus.Generate(smallParams(17))
	seqTable, seqDet := RunTableI(cases, analysis.DefaultOptions())
	for _, workers := range []int{1, 2, 8} {
		parTable, parDet, sum := RunTableIBatch(cases, analysis.DefaultOptions(), batch.Options{Workers: workers})
		if parTable != seqTable {
			t.Fatalf("workers=%d: table differs: %+v vs %+v", workers, parTable, seqTable)
		}
		if parDet.FormatPatternBreakdown() != seqDet.FormatPatternBreakdown() {
			t.Fatalf("workers=%d: breakdown differs", workers)
		}
		if sum.Files != len(cases) || sum.OK != len(cases) {
			t.Fatalf("workers=%d: summary %+v, want all %d cases ok", workers, sum, len(cases))
		}
		for i := range parDet.Outcomes {
			if parDet.Outcomes[i].Case.Name != seqDet.Outcomes[i].Case.Name ||
				len(parDet.Outcomes[i].Warnings) != len(seqDet.Outcomes[i].Warnings) {
				t.Fatalf("workers=%d: outcome %d differs", workers, i)
			}
		}
	}
}
