package eval

import (
	"context"
	"testing"

	"uafcheck"
	"uafcheck/internal/corpus"
)

// TestAtomicsExtensionTableI reproduces the future-work experiment: with
// atomic modeling enabled, every handshake-style false positive
// disappears, no true positive is lost, and the true-positive rate rises
// accordingly. Counting protocols remain conservatively flagged (the E/F
// abstraction is value-blind).
func TestAtomicsExtensionTableI(t *testing.T) {
	cases := corpus.Generate(smallParams(31))

	base, _, _ := RunTableI(context.Background(), cases)
	ext, extDet, _ := RunTableI(context.Background(), cases, uafcheck.WithAtomicsModel(true))

	if ext.TruePositives != base.TruePositives {
		t.Errorf("extension changed true positives: %d -> %d",
			base.TruePositives, ext.TruePositives)
	}
	if ext.WarningsReported >= base.WarningsReported {
		t.Errorf("extension did not reduce warnings: %d -> %d",
			base.WarningsReported, ext.WarningsReported)
	}
	if ext.TPPercent() <= base.TPPercent() {
		t.Errorf("TP%% did not improve: %.1f -> %.1f", base.TPPercent(), ext.TPPercent())
	}
	// Handshake pattern fully cleared; counter pattern still flagged.
	if ps := extDet.PerPattern["atomic-handshake"]; ps != nil && ps.Warnings != 0 {
		t.Errorf("handshake warnings with extension = %d, want 0", ps.Warnings)
	}
	if ps := extDet.PerPattern["atomic-counter"]; ps != nil && ps.Warnings == 0 {
		t.Errorf("counter pattern unexpectedly cleared (value-blind abstraction should keep it)")
	}
	// No soundness regressions: every ground-truth site still flagged.
	for _, out := range extDet.Outcomes {
		if len(out.MissedSites) != 0 {
			t.Fatalf("extension missed true sites in %s: %v", out.Case.Name, out.MissedSites)
		}
	}
	// Safe patterns stay clean.
	if len(extDet.UnexpectedWarnCases) != 0 {
		t.Errorf("extension made safe patterns warn: %v", extDet.UnexpectedWarnCases)
	}
}
