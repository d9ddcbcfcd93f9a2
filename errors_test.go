package uafcheck_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"uafcheck"
)

// TestErrParseIdentity: frontend rejections match ErrParse via
// errors.Is, from both the single-shot and the incremental entry
// points.
func TestErrParseIdentity(t *testing.T) {
	ctx := context.Background()
	_, err := uafcheck.AnalyzeContext(ctx, "bad.chpl", "proc ( {")
	if err == nil {
		t.Fatal("expected a frontend error")
	}
	if !errors.Is(err, uafcheck.ErrParse) {
		t.Errorf("errors.Is(err, ErrParse) = false for %v", err)
	}
	if !strings.Contains(err.Error(), "frontend errors") {
		t.Errorf("v1 message lost: %v", err)
	}

	_, derr := uafcheck.NewAnalyzer().AnalyzeDelta(ctx, "bad.chpl", "proc ( {")
	if !errors.Is(derr, uafcheck.ErrParse) {
		t.Errorf("AnalyzeDelta frontend error %v does not match ErrParse", derr)
	}
}

// TestErrParseMixedErrorText pins the ErrParse text of an input that
// mixes lexer and parser errors: every lexer error first, in source
// order, then every parser error.
func TestErrParseMixedErrorText(t *testing.T) {
	_, err := uafcheck.AnalyzeContext(context.Background(), "mixed.chpl",
		"x = 1;\nproc main() {\n  var a = ;\n  var b = 1.5 # 2;\n  writeln(\"open);\n}\n")
	want := `uafcheck: frontend errors:
mixed.chpl:4:11: error: floating-point literals are not part of MiniChapel
mixed.chpl:4:15: error: illegal character "#"
mixed.chpl:5:11: error: unterminated string literal
mixed.chpl:1:1: error: expected top-level proc or config declaration, found IDENT("x")
mixed.chpl:3:11: error: expected expression, found ;
mixed.chpl:4:3: error: expected ";", found var
mixed.chpl:4:11: error: invalid integer literal "1.5"
mixed.chpl:4:15: error: expected ";", found ILLEGAL
mixed.chpl:4:15: error: unexpected token ILLEGAL at start of statement
mixed.chpl:6:1: error: expected ",", found }
mixed.chpl:6:1: error: expected expression, found }
mixed.chpl:7:1: error: expected ")", found EOF
mixed.chpl:7:1: error: expected ";", found EOF
mixed.chpl:7:1: error: expected "}", found EOF
`
	if err == nil || !errors.Is(err, uafcheck.ErrParse) {
		t.Fatalf("err = %v, want ErrParse", err)
	}
	if err.Error() != want {
		t.Errorf("ErrParse text:\n%s\nwant:\n%s", err.Error(), want)
	}
}

// degradingSrc explores far more states than the budgets used below.
func degradingSrc() string {
	return `proc big() {
  var x: int = 0;
  var a$: sync bool;
  var b$: sync bool;
  var c$: sync bool;
  begin with (ref x) { x = 2; a$ = true; }
  begin with (ref x) { x = 3; b$ = true; }
  begin with (ref x) { x = 4; c$ = true; }
  a$;
  b$;
  c$;
}
`
}

// TestReportErrBudget: a budget-degraded report maps onto
// ErrBudgetExhausted through Report.Err, with the affected procedures
// in the message.
func TestReportErrBudget(t *testing.T) {
	rep, err := uafcheck.AnalyzeContext(context.Background(), "b.chpl", degradingSrc(),
		uafcheck.WithMaxStates(2))
	if err != nil {
		t.Fatal(err)
	}
	rerr := rep.Err()
	if !errors.Is(rerr, uafcheck.ErrBudgetExhausted) {
		t.Fatalf("Report.Err() = %v, want ErrBudgetExhausted", rerr)
	}
	if !strings.Contains(rerr.Error(), "big") {
		t.Errorf("degradation error should name the proc: %v", rerr)
	}
	if errors.Is(rerr, uafcheck.ErrDeadline) || errors.Is(rerr, uafcheck.ErrCancelled) {
		t.Errorf("budget error must not match the other sentinels: %v", rerr)
	}
}

// TestReportErrDeadlineAndCancelled cover the other two resource rungs.
func TestReportErrDeadlineAndCancelled(t *testing.T) {
	rep, err := uafcheck.AnalyzeContext(context.Background(), "d.chpl", degradingSrc(),
		uafcheck.WithDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if rerr := rep.Err(); !errors.Is(rerr, uafcheck.ErrDeadline) {
		t.Errorf("deadline run: Report.Err() = %v, want ErrDeadline", rerr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err = uafcheck.AnalyzeContext(ctx, "c.chpl", degradingSrc())
	if err != nil {
		t.Fatal(err)
	}
	if rerr := rep.Err(); !errors.Is(rerr, uafcheck.ErrCancelled) {
		t.Errorf("cancelled run: Report.Err() = %v, want ErrCancelled", rerr)
	}
}

// TestReportErrNilOnComplete: complete runs report no failure.
func TestReportErrNilOnComplete(t *testing.T) {
	rep, err := uafcheck.AnalyzeContext(context.Background(), "ok.chpl",
		"proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if rerr := rep.Err(); rerr != nil {
		t.Errorf("complete run: Report.Err() = %v, want nil", rerr)
	}
	var nilRep *uafcheck.Report
	if nilRep.Err() != nil {
		t.Error("nil report should have nil Err")
	}
}

// TestFileReportFailure: the batch driver speaks the same error
// vocabulary — frontend rejections match ErrParse, degradations match
// their sentinel, complete runs are nil.
func TestFileReportFailure(t *testing.T) {
	files := []uafcheck.FileInput{
		{Name: "bad.chpl", Src: "proc ( {"},
		{Name: "slow.chpl", Src: degradingSrc()},
		{Name: "ok.chpl", Src: "proc p() {\n  writeln(1);\n}\n"},
	}
	batch := uafcheck.AnalyzeFilesContext(context.Background(), files,
		uafcheck.WithMaxStates(2))
	if n := len(batch.Files); n != 3 {
		t.Fatalf("got %d file reports, want 3", n)
	}
	if err := batch.Files[0].Failure(); !errors.Is(err, uafcheck.ErrParse) {
		t.Errorf("bad.chpl Failure() = %v, want ErrParse", err)
	}
	if err := batch.Files[1].Failure(); !errors.Is(err, uafcheck.ErrBudgetExhausted) {
		t.Errorf("slow.chpl Failure() = %v, want ErrBudgetExhausted", err)
	}
	if err := batch.Files[2].Failure(); err != nil {
		t.Errorf("ok.chpl Failure() = %v, want nil", err)
	}
}
