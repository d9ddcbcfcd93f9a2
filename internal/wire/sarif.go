// SARIF 2.1.0 projection of analysis warnings, for code-scanning UIs
// (GitHub code scanning, VS Code SARIF viewers). One rule per warning
// kind; one result per warning, located at the file:line:col of the
// outer-variable access.
package wire

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"uafcheck"
	"uafcheck/internal/udiff"
)

// SARIFSchema and SARIFVersion pin the emitted format.
const (
	SARIFSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	SARIFVersion = "2.1.0"
)

// SARIFLog is the document root.
type SARIFLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []SARIFRun `json:"runs"`
}

// SARIFRun is one tool invocation.
type SARIFRun struct {
	Tool    SARIFTool     `json:"tool"`
	Results []SARIFResult `json:"results"`
}

// SARIFTool identifies the analyzer.
type SARIFTool struct {
	Driver SARIFDriver `json:"driver"`
}

// SARIFDriver carries the tool name, version and rule catalogue.
type SARIFDriver struct {
	Name           string      `json:"name"`
	Version        string      `json:"version"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []SARIFRule `json:"rules"`
}

// SARIFRule describes one warning kind. Every referenced kind ships
// its full metadata triple — id, shortDescription, helpUri — so
// code-scanning UIs can render a "learn more" link next to each
// finding; the golden-file test in sarif_test.go pins this shape.
type SARIFRule struct {
	ID               string       `json:"id"`
	ShortDescription SARIFMessage `json:"shortDescription"`
	HelpURI          string       `json:"helpUri,omitempty"`
}

// SARIFResult is one reported warning.
type SARIFResult struct {
	RuleID     string          `json:"ruleId"`
	Level      string          `json:"level"`
	Message    SARIFMessage    `json:"message"`
	Locations  []SARIFLocation `json:"locations"`
	Fixes      []SARIFFix      `json:"fixes,omitempty"`
	Properties map[string]any  `json:"properties,omitempty"`
}

// SARIFFix is one verified repair proposal: the patch that eliminates
// this result, expressed as line-region replacements against the
// original artifact so a code-scanning UI can offer it one click from
// the warning.
type SARIFFix struct {
	Description     SARIFMessage          `json:"description"`
	ArtifactChanges []SARIFArtifactChange `json:"artifactChanges"`
}

// SARIFArtifactChange groups the replacements applied to one file.
type SARIFArtifactChange struct {
	ArtifactLocation SARIFArtifactLocation `json:"artifactLocation"`
	Replacements     []SARIFReplacement    `json:"replacements"`
}

// SARIFReplacement deletes deletedRegion and inserts insertedContent
// in its place. A pure insertion uses a zero-width region (startLine
// with startColumn == endColumn == 1).
type SARIFReplacement struct {
	DeletedRegion   SARIFRegion           `json:"deletedRegion"`
	InsertedContent *SARIFArtifactContent `json:"insertedContent,omitempty"`
}

// SARIFArtifactContent carries inserted text.
type SARIFArtifactContent struct {
	Text string `json:"text"`
}

// SARIFMessage wraps a plain-text message.
type SARIFMessage struct {
	Text string `json:"text"`
}

// SARIFLocation is a physical file location.
type SARIFLocation struct {
	PhysicalLocation SARIFPhysicalLocation `json:"physicalLocation"`
}

// SARIFPhysicalLocation pairs an artifact with a region.
type SARIFPhysicalLocation struct {
	ArtifactLocation SARIFArtifactLocation `json:"artifactLocation"`
	Region           SARIFRegion           `json:"region"`
}

// SARIFArtifactLocation names the analyzed file.
type SARIFArtifactLocation struct {
	URI string `json:"uri"`
}

// SARIFRegion is a 1-based source region: the access position for
// result locations, a deleted line range for fix replacements.
type SARIFRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
	EndLine     int `json:"endLine,omitempty"`
	EndColumn   int `json:"endColumn,omitempty"`
}

// ruleMeta is the per-kind rule metadata (description prose plus the
// help link into this repo's docs). Unknown kinds still get a rule
// entry with the kind as its description, so the document always
// validates.
type ruleMetadata struct {
	desc    string
	helpURI string
}

var ruleMeta = map[string]ruleMetadata{
	"after-frontier": {
		desc: "Outer-variable access can execute after the " +
			"variable's parallel frontier: the enclosing scope may have " +
			"already freed it (use-after-free).",
		helpURI: "docs/ALGORITHM.md#after-frontier",
	},
	"never-synchronized": {
		desc: "No explored execution orders the access " +
			"before the parent scope's exit: the task is never synchronized " +
			"with the variable's lifetime.",
		helpURI: "docs/ALGORITHM.md#never-synchronized",
	},
}

// SARIF projects per-file results into one SARIF 2.1.0 log with a
// single run. Results are ordered (file, line, column, variable) and
// the rule catalogue lists each referenced kind exactly once, so the
// document is byte-deterministic for a given input set. Conservative
// (degradation-ladder) warnings downgrade to level "note" and carry a
// "conservative": true property — they flag unproven safety, not a
// proven bug.
func SARIF(results []Result) *SARIFLog {
	return SARIFWithFixes(results, nil)
}

// RepairedFile pairs a file's repair report with the source it
// repaired, the two ends a SARIF fix's replacements are computed from.
type RepairedFile struct {
	Src    string
	Report *uafcheck.RepairReport
}

// SARIFWithFixes is SARIF with verified repair patches embedded as
// `fixes` objects. repairs maps a result Name to that file's source and
// repair report; every warning the repair ELIMINATED gets a fix whose
// replacements rewrite the original file into the fully repaired one
// (source to Report.Fixed, so the applied fix is exactly what the
// verifier blessed — applying a prefix of the patch chain was never
// verified as a unit). Warnings still present in the repaired source
// get no fix, and files without a report (repair refused, degraded,
// or not attempted) emit plain results — a degraded analysis never
// serves a patch.
func SARIFWithFixes(results []Result, repairs map[string]RepairedFile) *SARIFLog {
	kinds := map[string]bool{}
	var out []SARIFResult
	for _, fr := range results {
		if fr.Report == nil {
			continue
		}
		// remaining counts the warning keys the repair could NOT
		// eliminate; every other warning carries the fix.
		var fix []SARIFFix
		var remaining map[string]int
		if rf := repairs[fr.Name]; rf.Report != nil && len(rf.Report.Patches) > 0 {
			if f, ok := sarifFix(fr.Name, rf); ok {
				fix = []SARIFFix{f}
				remaining = make(map[string]int, len(rf.Report.Remaining))
				for _, w := range rf.Report.Remaining {
					remaining[sarifWarnKey(w)]++
				}
			}
		}
		for _, w := range fr.Report.Warnings {
			kinds[w.Reason] = true
			level := "warning"
			var props map[string]any
			if w.Conservative {
				level = "note"
				props = map[string]any{"conservative": true}
			}
			var fixes []SARIFFix
			if fix != nil {
				if k := sarifWarnKey(w); remaining[k] > 0 {
					remaining[k]--
				} else {
					fixes = fix
				}
			}
			out = append(out, SARIFResult{
				RuleID:  w.Reason,
				Level:   level,
				Message: SARIFMessage{Text: w.String()},
				Locations: []SARIFLocation{{
					PhysicalLocation: SARIFPhysicalLocation{
						ArtifactLocation: SARIFArtifactLocation{URI: fr.Name},
						Region: SARIFRegion{
							StartLine:   w.AccessLine,
							StartColumn: w.AccessCol,
						},
					},
				}},
				Fixes:      fixes,
				Properties: props,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		al, bl := a.Locations[0].PhysicalLocation, b.Locations[0].PhysicalLocation
		if al.ArtifactLocation.URI != bl.ArtifactLocation.URI {
			return al.ArtifactLocation.URI < bl.ArtifactLocation.URI
		}
		if al.Region.StartLine != bl.Region.StartLine {
			return al.Region.StartLine < bl.Region.StartLine
		}
		return al.Region.StartColumn < bl.Region.StartColumn
	})

	var rules []SARIFRule
	for kind := range kinds {
		meta := ruleMeta[kind]
		if meta.desc == "" {
			meta.desc = kind
		}
		rules = append(rules, SARIFRule{
			ID:               kind,
			ShortDescription: SARIFMessage{Text: meta.desc},
			HelpURI:          meta.helpURI,
		})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	if rules == nil {
		rules = []SARIFRule{}
	}
	if out == nil {
		out = []SARIFResult{}
	}

	return &SARIFLog{
		Schema:  SARIFSchema,
		Version: SARIFVersion,
		Runs: []SARIFRun{{
			Tool: SARIFTool{Driver: SARIFDriver{
				Name:    "uafcheck",
				Version: uafcheck.Version,
				Rules:   rules,
			}},
			Results: out,
		}},
	}
}

// sarifWarnKey identifies a warning stably across the reflow a patch
// causes: positions shift, but (proc, task, var, reason, rw) survive.
func sarifWarnKey(w uafcheck.Warning) string {
	rw := "r"
	if w.Write {
		rw = "w"
	}
	return w.Proc + "\x00" + w.Task + "\x00" + w.Var + "\x00" + w.Reason + "\x00" + rw
}

// sarifFix converts a repair into one SARIF fix: the line-region
// replacements that turn the original artifact into the repaired
// source. It reports ok=false when the repair changed nothing.
func sarifFix(name string, rf RepairedFile) (SARIFFix, bool) {
	rr := rf.Report
	edits := udiff.Edits(rf.Src, rr.Fixed)
	if len(edits) == 0 {
		return SARIFFix{}, false
	}
	var reps []SARIFReplacement
	for _, e := range edits {
		var region SARIFRegion
		if e.EndA >= e.StartA {
			region = SARIFRegion{StartLine: e.StartA, EndLine: e.EndA}
		} else {
			// Pure insertion: zero-width region before StartA.
			region = SARIFRegion{StartLine: e.StartA, StartColumn: 1, EndLine: e.StartA, EndColumn: 1}
		}
		rep := SARIFReplacement{DeletedRegion: region}
		if len(e.Inserted) > 0 {
			rep.InsertedContent = &SARIFArtifactContent{Text: strings.Join(e.Inserted, "\n") + "\n"}
		}
		reps = append(reps, rep)
	}
	var strategies []string
	seen := map[string]bool{}
	for _, p := range rr.Patches {
		if !seen[p.Strategy] {
			seen[p.Strategy] = true
			strategies = append(strategies, p.Strategy)
		}
	}
	desc := fmt.Sprintf("uafcheck verified repair (%s): %d -> %d warnings",
		strings.Join(strategies, ", "), rr.InitialWarnings, rr.RemainingWarnings)
	return SARIFFix{
		Description: SARIFMessage{Text: desc},
		ArtifactChanges: []SARIFArtifactChange{{
			ArtifactLocation: SARIFArtifactLocation{URI: name},
			Replacements:     reps,
		}},
	}, true
}

// EncodeIndent renders the log as indented JSON (what -format=sarif
// prints), with a trailing newline.
func (l *SARIFLog) EncodeIndent() ([]byte, error) {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
