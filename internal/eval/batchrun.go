package eval

import (
	"uafcheck/internal/analysis"
	"uafcheck/internal/batch"
	"uafcheck/internal/corpus"
)

// RunTableIBatch runs the Table I evaluation on the fault-isolated batch
// driver: a worker pool with per-case deadlines, retry-with-smaller-budget,
// and panic isolation, so one pathological generated program can slow or
// crash only itself, never the evaluation. The returned Summary is the robustness accounting (cases
// OK / degraded / timed out / crashed).
//
// Scoring is identical to RunTableI — outcomes feed the same aggregate —
// so on a healthy corpus both drivers produce the same table.
func RunTableIBatch(cases []corpus.TestCase, opts analysis.Options, bopts batch.Options) (TableI, *Details, batch.Summary) {
	files := make([]batch.File, len(cases))
	for i := range cases {
		files[i] = batch.File{Name: cases[i].Name + ".chpl", Src: cases[i].Source}
	}
	bopts.Analysis = opts
	results, sum := batch.Run(files, bopts)

	outcomes := make([]CaseOutcome, len(cases))
	for i := range results {
		outcomes[i] = outcomeFrom(&cases[i], results[i].Res, results[i].Duration)
	}
	table, det := aggregate(cases, outcomes)
	return table, det, sum
}
