package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uafcheck"
)

// syncBuf is a mutex-guarded output buffer: runWatch writes from its
// own goroutine while the test polls String.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunWatchDiffsOnEdit drives one full watch cycle against a real
// file: initial report, an edit that removes the warning, and the
// resulting "-" diff line.
func TestRunWatchDiffsOnEdit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.chpl")
	buggy := "proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"
	fixed := "proc p() {\n  var x: int = 0;\n  sync {\n    begin with (ref x) {\n      x = 1;\n    }\n  }\n}\n"
	if err := os.WriteFile(path, []byte(buggy), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	an := uafcheck.NewAnalyzer()
	var out syncBuf
	done := make(chan struct{})
	go func() {
		defer close(done)
		runWatch(ctx, &out, an, nil, []string{path}, time.Millisecond, time.Minute, true)
	}()

	deadline := time.Now().Add(5 * time.Second)
	waitFor := func(substr string) {
		t.Helper()
		for time.Now().Before(deadline) {
			if strings.Contains(out.String(), substr) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("watch output never contained %q:\n%s", substr, out.String())
	}

	// The initial pass reports the dangerous write.
	waitFor("+ " + path)
	if !strings.Contains(out.String(), "1 warning(s)") {
		t.Fatalf("initial pass should report one warning:\n%s", out.String())
	}
	// Fixing the file must produce a removal diff, not a full report.
	if err := os.WriteFile(path, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor("- " + path)
	cancel()
	<-done

	if st := an.Stats(); st.Files < 2 {
		t.Errorf("analyzer should have seen both versions: %+v", st)
	}

	// showMetrics prints the session aggregate on exit, including the
	// watch loop's own counters.
	got := out.String()
	if !strings.Contains(got, "watch metrics:") {
		t.Fatalf("watch exit should print metrics:\n%s", got)
	}
	for _, ctr := range []string{"watch.polls", "watch.changed_files"} {
		if !strings.Contains(got, ctr) {
			t.Errorf("watch metrics missing %s counter:\n%s", ctr, got)
		}
	}
}
