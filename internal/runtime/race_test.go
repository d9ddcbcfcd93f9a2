package runtime

import (
	"context"
	"testing"
)

// raceExplore walks the full schedule tree with race detection and
// collects the distinct race keys observed across schedules.
func raceExplore(t *testing.T, src, entry string) map[string]bool {
	t.Helper()
	mod, info := load(t, src)
	out := make(map[string]bool)
	for k := range Explore(context.Background(), mod, info, entry, 20000, -1).Races {
		out[k] = true
	}
	return out
}

// TestRaceUnsyncedWrites: two tasks increment the same variable with no
// ordering — a write-write race.
func TestRaceUnsyncedWrites(t *testing.T) {
	races := raceExplore(t, `
proc main() {
  var x: int = 0;
  var da$: sync bool;
  var db$: sync bool;
  begin with (ref x) { x = x + 1; da$ = true; }
  begin with (ref x) { x = x + 1; db$ = true; }
  da$;
  db$;
}`, "main")
	if len(races) == 0 {
		t.Fatal("unsynchronized concurrent increments produced no race")
	}
}

// TestNoRaceWaitChain: the token chain orders the task's write before the
// parent's read.
func TestNoRaceWaitChain(t *testing.T) {
	races := raceExplore(t, `
proc main() {
  var x: int = 0;
  var done$: sync bool;
  begin with (ref x) {
    x = 42;
    done$ = true;
  }
  done$;
  writeln(x);
}`, "main")
	if len(races) != 0 {
		t.Fatalf("wait chain reported racy: %v", races)
	}
}

// TestNoRaceSyncBlock: the fence orders everything inside before the
// parent's continuation.
func TestNoRaceSyncBlock(t *testing.T) {
	races := raceExplore(t, `
proc main() {
  var x: int = 0;
  sync {
    begin with (ref x) { x = 1; }
  }
  writeln(x);
}`, "main")
	if len(races) != 0 {
		t.Fatalf("fence reported racy: %v", races)
	}
}

// TestNoRaceAtomicHandshake: the atomic waitFor induces happens-before —
// the detector must honor it even though the STATIC analysis does not.
func TestNoRaceAtomicHandshake(t *testing.T) {
	races := raceExplore(t, `
proc main() {
  var x: int = 0;
  var f: atomic int;
  begin with (ref x) {
    x = 9;
    f.write(1);
  }
  f.waitFor(1);
  writeln(x);
}`, "main")
	if len(races) != 0 {
		t.Fatalf("atomic handshake reported racy: %v", races)
	}
}

// TestRaceReadVsWrite: a parent read unordered with a task write races.
func TestRaceReadVsWrite(t *testing.T) {
	races := raceExplore(t, `
proc main() {
  var x: int = 0;
  var done$: sync bool;
  begin with (ref x) {
    x = 1;
    done$ = true;
  }
  writeln(x);
  done$;
}`, "main")
	if len(races) == 0 {
		t.Fatal("parent read racing the task write not detected")
	}
}

// TestRaceDetectionOffByDefault: no race machinery runs unless enabled.
func TestRaceDetectionOffByDefault(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 0;
  begin with (ref x) { x = 1; }
  writeln(x);
}`)
	r := Run(mod, info, Config{})
	if len(r.Races) != 0 {
		t.Fatalf("races recorded without DetectRaces: %v", r.Races)
	}
}

// TestSingleBroadcastNoRaceOnReads: many readers of a single variable are
// race-free among themselves and with the writer.
func TestSingleBroadcastNoRaceOnReads(t *testing.T) {
	races := raceExplore(t, `
proc main() {
  var x: int = 7;
  var go$: single bool;
  var d1$: sync bool;
  var d2$: sync bool;
  begin {
    go$.readFF();
    writeln(x);
    d1$ = true;
  }
  begin {
    go$.readFF();
    writeln(x);
    d2$ = true;
  }
  go$.writeEF(true);
  d1$;
  d2$;
}`, "main")
	if len(races) != 0 {
		t.Fatalf("read-only sharing reported racy: %v", races)
	}
}
