package lexer

import (
	"strings"
	"testing"

	"uafcheck/internal/token"
)

// TestEveryKindSpelling lexes the spelling of every operator and
// keyword kind on its own and expects that kind back, so the lexer's
// operator switch and token.Lookup stay in step with the kind names.
func TestEveryKindSpelling(t *testing.T) {
	literal := map[token.Kind]bool{
		token.Illegal: true, token.EOF: true, token.Comment: true,
		token.Ident: true, token.IntLit: true, token.BoolLit: true, token.StringLit: true,
	}
	checked := 0
	for k := token.Kind(0); k < 256; k++ {
		spell := k.String()
		if literal[k] || strings.HasPrefix(spell, "Kind(") {
			continue
		}
		want := k
		if k == token.KwTrue || k == token.KwFalse {
			want = token.BoolLit
		}
		toks, diags := lex(t, spell)
		if len(toks) != 2 || toks[0].Kind != want || toks[0].Lit != spell || len(diags.All()) != 0 {
			t.Errorf("lex(%q) = %v, diags %q; want one %v", spell, toks, diags.String(), want)
		}
		checked++
	}
	// 31 operators and delimiters, 22 keywords.
	if checked != 53 {
		t.Errorf("checked %d kinds, want 53", checked)
	}
}

// TestNearMisses pins the tokens and diagnostics of spellings one step
// away from a keyword or an operator.
func TestNearMisses(t *testing.T) {
	for _, tc := range []struct {
		src   string
		want  string // the tokens before EOF, space-separated
		diags string
	}{
		{"begins", `IDENT("begins")`, ""},
		{"Begin", `IDENT("Begin")`, ""},
		{"trueish", `IDENT("trueish")`, ""},
		{"doneA$", `IDENT("doneA$")`, ""},
		{"doneA$$", `IDENT("doneA$") ILLEGAL`, `t.chpl:1:7: error: illegal character "$"` + "\n"},
		{"=>", "= >", ""},
		{"<>", "< >", ""},
		{"/=", "/ =", ""},
		{"!==", "!= =", ""},
		{"+++", "++ +", ""},
		{"...", ".. .", ""},
		{"&", "ILLEGAL", `t.chpl:1:1: error: illegal character "&"` + "\n"},
		{"&&&", "&& ILLEGAL", `t.chpl:1:3: error: illegal character "&"` + "\n"},
		{"|", "ILLEGAL", `t.chpl:1:1: error: illegal character "|"` + "\n"},
		{"1.5", `INT("1.5")`, "t.chpl:1:1: error: floating-point literals are not part of MiniChapel\n"},
	} {
		toks, diags := lex(t, tc.src)
		var got []string
		for _, tk := range toks[:len(toks)-1] {
			got = append(got, tk.String())
		}
		if strings.Join(got, " ") != tc.want || diags.String() != tc.diags {
			t.Errorf("lex(%q) = %s, diags %q; want %s, diags %q",
				tc.src, strings.Join(got, " "), diags.String(), tc.want, tc.diags)
		}
	}
}
