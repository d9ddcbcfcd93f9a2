// Package source provides source files, positions, spans and diagnostics
// for the MiniChapel frontend. Every later stage (lexer, parser, resolver,
// analysis) reports locations through this package so that warnings carry
// the file:line:column form the paper's compiler pass prints.
package source

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Pos is a byte offset into a File, 0-based. NoPos marks an unknown
// location (synthesized nodes, inlined copies without an origin).
type Pos int

// NoPos is the zero Pos, meaning "no position recorded".
const NoPos Pos = -1

// IsValid reports whether the position refers to a real file offset.
func (p Pos) IsValid() bool { return p >= 0 }

// Span is a half-open byte range [Start, End) within one file.
type Span struct {
	Start Pos
	End   Pos
}

// NoSpan is the span with both ends at NoPos.
var NoSpan = Span{NoPos, NoPos}

// IsValid reports whether both endpoints are valid and ordered.
func (s Span) IsValid() bool { return s.Start.IsValid() && s.End >= s.Start }

// Cover returns the smallest span containing both s and t.
// Invalid spans are ignored.
func (s Span) Cover(t Span) Span {
	if !s.IsValid() {
		return t
	}
	if !t.IsValid() {
		return s
	}
	u := s
	if t.Start < u.Start {
		u.Start = t.Start
	}
	if t.End > u.End {
		u.End = t.End
	}
	return u
}

// File holds one source file's name and content, plus a line index for
// offset→line:column translation. The index is built on the first
// position lookup: a file that parses and resolves cleanly and has no
// task to analyze never needs one.
type File struct {
	Name    string
	Content string

	once  sync.Once
	lines []int // byte offsets of line starts; lines[0] == 0
}

// NewFile returns a File over content.
func NewFile(name, content string) *File {
	return &File{Name: name, Content: content}
}

// lineStarts returns the line index, building it on first use. A File
// may be read from several goroutines, so the build runs under once.
func (f *File) lineStarts() []int {
	f.once.Do(func() {
		f.lines = make([]int, 1, strings.Count(f.Content, "\n")+1)
		for i := 0; i < len(f.Content); i++ {
			if f.Content[i] == '\n' {
				f.lines = append(f.lines, i+1)
			}
		}
	})
	return f.lines
}

// NumLines returns the number of lines in the file. An empty file has one
// (empty) line.
func (f *File) NumLines() int { return len(f.lineStarts()) }

// Line returns the 1-based line number containing pos.
func (f *File) Line(pos Pos) int {
	if !pos.IsValid() {
		return 0
	}
	// Find the last line start <= pos.
	lines := f.lineStarts()
	i := sort.Search(len(lines), func(i int) bool { return lines[i] > int(pos) })
	return i // lines are 1-based, and i is the count of starts <= pos
}

// Column returns the 1-based column of pos within its line.
func (f *File) Column(pos Pos) int {
	if !pos.IsValid() {
		return 0
	}
	return int(pos) - f.lineStarts()[f.Line(pos)-1] + 1
}

// Position renders pos as "name:line:col".
func (f *File) Position(pos Pos) string {
	if !pos.IsValid() {
		return f.Name + ":-"
	}
	return fmt.Sprintf("%s:%d:%d", f.Name, f.Line(pos), f.Column(pos))
}

// PosAt returns the byte offset of a 1-based line and column, the
// inverse of Line/Column. Out-of-range lines or columns clamp to the
// nearest valid offset; line <= 0 yields NoPos. The incremental engine
// uses it to re-anchor memoized per-procedure diagnostics after the
// procedure's absolute position shifted.
func (f *File) PosAt(line, col int) Pos {
	if line <= 0 {
		return NoPos
	}
	lines := f.lineStarts()
	if line > len(lines) {
		line = len(lines)
	}
	start := lines[line-1]
	end := len(f.Content)
	if line < len(lines) {
		end = lines[line] - 1
	}
	p := start + col - 1
	if p < start {
		p = start
	}
	if p > end {
		p = end
	}
	return Pos(p)
}

// LineText returns the text of the 1-based line number, without the
// trailing newline. Out-of-range lines yield "".
func (f *File) LineText(line int) string {
	lines := f.lineStarts()
	if line < 1 || line > len(lines) {
		return ""
	}
	start := lines[line-1]
	end := len(f.Content)
	if line < len(lines) {
		end = lines[line] - 1
	}
	if end < start {
		end = start
	}
	return f.Content[start:end]
}

// Severity classifies a diagnostic.
type Severity int

const (
	// Warning diagnostics report potentially dangerous accesses; the
	// paper's pass never hard-fails the build.
	Warning Severity = iota
	// Error diagnostics are frontend failures (lex/parse/resolve).
	Error
	// Note diagnostics carry analysis-limit information (e.g. a loop
	// containing sync nodes that the analysis subsumes, §IV-A).
	Note
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Warning:
		return "warning"
	case Error:
		return "error"
	case Note:
		return "note"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is one message anchored to a source span.
type Diagnostic struct {
	File     *File
	Span     Span
	Severity Severity
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	loc := "-"
	if d.File != nil {
		loc = d.File.Position(d.Span.Start)
	}
	return fmt.Sprintf("%s: %s: %s", loc, d.Severity, d.Message)
}

// Line returns the 1-based line of the diagnostic start, or 0.
func (d Diagnostic) Line() int {
	if d.File == nil {
		return 0
	}
	return d.File.Line(d.Span.Start)
}

// Diagnostics accumulates messages in emission order.
type Diagnostics struct {
	list []Diagnostic
}

// Add appends a diagnostic.
func (ds *Diagnostics) Add(d Diagnostic) { ds.list = append(ds.list, d) }

// Addf formats and appends a diagnostic.
func (ds *Diagnostics) Addf(f *File, sp Span, sev Severity, format string, args ...any) {
	ds.Add(Diagnostic{File: f, Span: sp, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// All returns the diagnostics in emission order. The returned slice is the
// internal one; callers must not mutate it.
func (ds *Diagnostics) All() []Diagnostic { return ds.list }

// Count returns the number of diagnostics with the given severity.
func (ds *Diagnostics) Count(sev Severity) int {
	n := 0
	for _, d := range ds.list {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any Error-severity diagnostic was added.
func (ds *Diagnostics) HasErrors() bool { return ds.Count(Error) > 0 }

// String renders all diagnostics, one per line.
func (ds *Diagnostics) String() string {
	var b strings.Builder
	for _, d := range ds.list {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// SortByPos orders diagnostics by (file name, start offset), keeping the
// relative order of equal keys stable. Useful for deterministic reports.
func (ds *Diagnostics) SortByPos() {
	sort.SliceStable(ds.list, func(i, j int) bool {
		a, b := ds.list[i], ds.list[j]
		an, bn := "", ""
		if a.File != nil {
			an = a.File.Name
		}
		if b.File != nil {
			bn = b.File.Name
		}
		if an != bn {
			return an < bn
		}
		return a.Span.Start < b.Span.Start
	})
}
