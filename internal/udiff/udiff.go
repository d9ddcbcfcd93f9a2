// Package udiff produces unified diffs between two versions of a
// source file. It exists so the repair surface can hand out patches in
// the one format every toolchain already consumes — `patch -p1`, git
// apply, GitHub suggested changes — instead of whole rewritten files.
//
// The package is deliberately small: a line-based longest-common-
// subsequence diff (the inputs are MiniChapel sources, a few hundred
// lines at most, so the quadratic DP table is irrelevant), standard
// `--- a/<name>` / `+++ b/<name>` headers, three lines of context per
// hunk, and the classic `\ No newline at end of file` marker so diffs
// survive sources that do not end in a newline. Edits exposes the raw
// replacement runs for consumers that need structured regions instead
// of text — the SARIF `fixes` projection in internal/wire is built on
// it. Apply replays a diff in-process, which is both the test oracle
// against patch(1) and the way server tests reconstruct patched
// sources without shelling out.
package udiff

import (
	"fmt"
	"strconv"
	"strings"
)

// context is the number of unchanged lines shown around each change,
// matching the diff(1) default.
const context = 3

// noEOL is an internal sentinel appended to the final line of a file
// that does not end in a newline. GNU diff treats "foo" and "foo\n"
// as *different* lines (the former prints with a "\ No newline at end
// of file" marker); carrying the terminator state in the line content
// makes the LCS agree with that for free. The byte cannot appear in
// text input because splitLines only attaches it past the last
// newline.
const noEOL = "\x00"

// Edit is one maximal replacement run against the original ("a")
// side: lines StartA..EndA (1-based, inclusive) are deleted and
// Inserted takes their place. A pure insertion has EndA = StartA-1
// (an empty deleted range positioned *before* line StartA); a pure
// deletion has len(Inserted) == 0.
type Edit struct {
	StartA   int
	EndA     int
	Inserted []string
}

// splitLines cuts s into lines without their trailing newline,
// tagging an unterminated final line with the noEOL sentinel. An
// empty string is zero lines.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	finalNL := strings.HasSuffix(s, "\n")
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if !finalNL {
		lines[len(lines)-1] += noEOL
	}
	return lines
}

// joinLines is the inverse of splitLines.
func joinLines(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	last := lines[len(lines)-1]
	if strings.HasSuffix(last, noEOL) {
		head := strings.Join(lines[:len(lines)-1], "\n")
		if head != "" {
			head += "\n"
		}
		return head + strings.TrimSuffix(last, noEOL)
	}
	return strings.Join(lines, "\n") + "\n"
}

// lcs returns the longest-common-subsequence table for a and b:
// tab[i][j] is the LCS length of a[i:] and b[j:].
func lcs(a, b []string) [][]int {
	tab := make([][]int, len(a)+1)
	for i := range tab {
		tab[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				tab[i][j] = tab[i+1][j+1] + 1
			} else if tab[i+1][j] >= tab[i][j+1] {
				tab[i][j] = tab[i+1][j]
			} else {
				tab[i][j] = tab[i][j+1]
			}
		}
	}
	return tab
}

// op is one element of the line-level edit script.
type op struct {
	kind byte // ' ' keep, '-' delete (from a), '+' insert (from b)
	line string
}

// script computes the edit script turning a into b.
func script(a, b []string) []op {
	tab := lcs(a, b)
	var ops []op
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			ops = append(ops, op{' ', a[i]})
			i++
			j++
		case tab[i+1][j] >= tab[i][j+1]:
			ops = append(ops, op{'-', a[i]})
			i++
		default:
			ops = append(ops, op{'+', b[j]})
			j++
		}
	}
	for ; i < len(a); i++ {
		ops = append(ops, op{'-', a[i]})
	}
	for ; j < len(b); j++ {
		ops = append(ops, op{'+', b[j]})
	}
	return ops
}

// Edits returns the replacement runs that turn a into b, in ascending
// original-line order. Adjacent delete/insert ops are coalesced into
// one Edit, so each returned edit is a maximal changed region.
// Inserted lines are plain text (no newline, no terminator sentinel).
func Edits(a, b string) []Edit {
	ops := script(splitLines(a), splitLines(b))
	var edits []Edit
	aline := 0 // lines of a consumed so far
	k := 0
	for k < len(ops) {
		if ops[k].kind == ' ' {
			aline++
			k++
			continue
		}
		// Start of a changed run: collect all '-' and '+' until the
		// next keep.
		e := Edit{StartA: aline + 1}
		dels := 0
		for k < len(ops) && ops[k].kind != ' ' {
			if ops[k].kind == '-' {
				dels++
			} else {
				e.Inserted = append(e.Inserted, strings.TrimSuffix(ops[k].line, noEOL))
			}
			k++
		}
		e.EndA = aline + dels
		aline += dels
		edits = append(edits, e)
	}
	return edits
}

// Unified renders the unified diff turning a into b, with `--- a/name`
// and `+++ b/name` headers and three lines of context per hunk, in the
// exact shape `patch -p1` consumes. It returns "" when a == b.
func Unified(name, a, b string) string {
	if a == b {
		return ""
	}
	ops := script(splitLines(a), splitLines(b))

	var sb strings.Builder
	fmt.Fprintf(&sb, "--- a/%s\n", name)
	fmt.Fprintf(&sb, "+++ b/%s\n", name)

	// positions[k] = (a,b) line counts consumed before ops[k].
	type pos struct{ a, b int }
	positions := make([]pos, len(ops)+1)
	pa, pb := 0, 0
	for k, o := range ops {
		positions[k] = pos{pa, pb}
		switch o.kind {
		case ' ':
			pa++
			pb++
		case '-':
			pa++
		case '+':
			pb++
		}
	}
	positions[len(ops)] = pos{pa, pb}

	k := 0
	for k < len(ops) {
		if ops[k].kind == ' ' {
			k++
			continue
		}
		// ops[k] is the first change of a new hunk. Back up over at
		// most `context` keeps for leading context.
		start := k
		for keeps := 0; start > 0 && ops[start-1].kind == ' ' && keeps < context; keeps++ {
			start--
		}
		// Extend the hunk end: merge subsequent change runs
		// separated by at most 2*context keeps, then add trailing
		// context.
		end := k
		for {
			for end < len(ops) && ops[end].kind != ' ' {
				end++
			}
			gap := 0
			next := end
			for next < len(ops) && ops[next].kind == ' ' {
				next++
				gap++
			}
			if next < len(ops) && gap <= 2*context {
				end = next
				continue
			}
			if gap > context {
				gap = context
			}
			end += gap
			break
		}

		hs, he := positions[start], positions[end]
		aCount := he.a - hs.a
		bCount := he.b - hs.b
		aStart := hs.a + 1
		bStart := hs.b + 1
		// diff(1) convention: an empty range is reported at the line
		// *before* the hunk.
		if aCount == 0 {
			aStart = hs.a
		}
		if bCount == 0 {
			bStart = hs.b
		}
		fmt.Fprintf(&sb, "@@ -%s +%s @@\n", hunkRange(aStart, aCount), hunkRange(bStart, bCount))
		for t := start; t < end; t++ {
			sb.WriteByte(ops[t].kind)
			sb.WriteString(strings.TrimSuffix(ops[t].line, noEOL))
			sb.WriteByte('\n')
			if strings.HasSuffix(ops[t].line, noEOL) {
				sb.WriteString("\\ No newline at end of file\n")
			}
		}
		k = end
	}
	return sb.String()
}

// hunkRange formats one side of a @@ header, eliding ",1" exactly as
// diff(1) does.
func hunkRange(start, count int) string {
	if count == 1 {
		return fmt.Sprintf("%d", start)
	}
	return fmt.Sprintf("%d,%d", start, count)
}

// Apply replays the diff produced by Unified(name, a, b) against a and
// returns b. It is the in-process consistency oracle used by tests and
// by callers that reconstruct patched text without shelling out to
// patch(1). Only diffs in the shape this package emits are supported
// (single file, exact context, no fuzz).
func Apply(a, diff string) (string, error) {
	if diff == "" {
		return a, nil
	}
	al := splitLines(a)
	lines := strings.Split(strings.TrimSuffix(diff, "\n"), "\n")
	var out []string
	apos := 0 // 0-based index into al of the next unconsumed line
	i := 0
	for i < len(lines) && (strings.HasPrefix(lines[i], "--- ") || strings.HasPrefix(lines[i], "+++ ")) {
		i++
	}
	// noeolTag re-attaches the sentinel when the following diff line
	// is the no-newline marker.
	noeolTag := func(text string) string {
		if i+1 < len(lines) && lines[i+1] == `\ No newline at end of file` {
			return text + noEOL
		}
		return text
	}
	for i < len(lines) {
		ln := lines[i]
		if !strings.HasPrefix(ln, "@@ ") {
			return "", fmt.Errorf("udiff: unexpected line %q", ln)
		}
		aStart, aCount, err := hunkOrigin(ln)
		if err != nil {
			return "", err
		}
		from := aStart - 1
		if aCount == 0 {
			from = aStart // empty a-range is anchored before the next line
		}
		if from < apos || from > len(al) {
			return "", fmt.Errorf("udiff: hunk out of order at %q", ln)
		}
		out = append(out, al[apos:from]...)
		apos = from
		i++
		for i < len(lines) && !strings.HasPrefix(lines[i], "@@ ") {
			body := lines[i]
			if body == `\ No newline at end of file` {
				i++
				continue
			}
			if body == "" {
				// Tolerate a trimmed empty context line.
				body = " "
			}
			tag, text := body[0], body[1:]
			switch tag {
			case ' ':
				text = noeolTag(text)
				if apos >= len(al) || al[apos] != text {
					return "", fmt.Errorf("udiff: context mismatch at a line %d", apos+1)
				}
				out = append(out, text)
				apos++
			case '-':
				text = noeolTag(text)
				if apos >= len(al) || al[apos] != text {
					return "", fmt.Errorf("udiff: delete mismatch at a line %d", apos+1)
				}
				apos++
			case '+':
				out = append(out, noeolTag(text))
			default:
				return "", fmt.Errorf("udiff: unexpected hunk line %q", body)
			}
			i++
		}
	}
	out = append(out, al[apos:]...)
	return joinLines(out), nil
}

// hunkOrigin parses the original ("a") side of a "@@ -a[,c] +b[,c] @@"
// header: its start line and line count (1 when the count is elided).
func hunkOrigin(ln string) (start, count int, err error) {
	a, _, _ := strings.Cut(strings.TrimPrefix(ln, "@@ -"), " ")
	startS, countS, hasCount := strings.Cut(a, ",")
	start, err = strconv.Atoi(startS)
	count = 1
	if err == nil && hasCount {
		count, err = strconv.Atoi(countS)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("udiff: bad hunk header %q", ln)
	}
	return start, count, nil
}
