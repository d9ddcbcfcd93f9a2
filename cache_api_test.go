// Public-API tests of the content-addressed report cache: hits for
// unchanged inputs, misses for any change of source or effective
// options, degraded results never cached, clone isolation, the disk
// layer, and batch runs through the cache.
package uafcheck_test

import (
	"context"
	"os"
	"testing"

	"uafcheck"
)

const cachedProg = `
proc main() {
  var x: int = 10;
  begin with (ref x) {
    writeln(x);
  }
}`

func TestCacheHitForUnchangedInput(t *testing.T) {
	cc := uafcheck.NewCache(uafcheck.CacheConfig{})
	ctx := context.Background()
	first, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(cc))
	if err != nil {
		t.Fatal(err)
	}
	second, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(cc))
	if err != nil {
		t.Fatal(err)
	}
	st := cc.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Stores != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit / 1 store", st)
	}
	if len(second.Warnings) != len(first.Warnings) || second.Warnings[0].String() != first.Warnings[0].String() {
		t.Errorf("cached report drifted: %+v vs %+v", second.Warnings, first.Warnings)
	}
	if second.Metrics.Counter("cache.hits") != 1 {
		t.Errorf("cached report should carry the cache.hits counter, got %v", second.Metrics.Counters)
	}
	if first.Metrics.Counter("cache.misses") != 1 || first.Metrics.Counter("cache.stores") != 1 {
		t.Errorf("miss report should carry cache.misses/cache.stores, got %v", first.Metrics.Counters)
	}
}

func TestCacheMissOnSourceChange(t *testing.T) {
	cc := uafcheck.NewCache(uafcheck.CacheConfig{})
	ctx := context.Background()
	if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(cc)); err != nil {
		t.Fatal(err)
	}
	if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg+"\n// changed",
		uafcheck.WithCache(cc)); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses / 0 hits after a source change", st)
	}
}

func TestCacheMissOnOptionChange(t *testing.T) {
	cc := uafcheck.NewCache(uafcheck.CacheConfig{})
	ctx := context.Background()
	if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(cc)); err != nil {
		t.Fatal(err)
	}
	// Pruning participates in the content address, so flipping it must
	// miss; parallelism does not (results are identical), so it must hit.
	if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg,
		uafcheck.WithCache(cc), uafcheck.WithPrune(false)); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses after an option change", st)
	}
	if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg,
		uafcheck.WithCache(cc), uafcheck.WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Hits != 1 {
		t.Errorf("stats = %+v, want a hit across parallelism levels", st)
	}
}

func TestCacheDegradedNeverStored(t *testing.T) {
	cc := uafcheck.NewCache(uafcheck.CacheConfig{})
	ctx := context.Background()
	// The fanout program explores far more than 2 states, so the budget
	// rung of the degradation ladder fires.
	src := syntheticFanout(4, 2)
	opts := []uafcheck.Option{uafcheck.WithCache(cc), uafcheck.WithMaxStates(2)}
	rep, err := uafcheck.AnalyzeContext(ctx, "fan.chpl", src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded == nil {
		t.Fatal("test premise broken: MaxStates=2 should degrade the fanout analysis")
	}
	if _, err := uafcheck.AnalyzeContext(ctx, "fan.chpl", src, opts...); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Stores != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want degraded runs to always miss and never store", st)
	}
}

func TestCacheMutationIsolation(t *testing.T) {
	cc := uafcheck.NewCache(uafcheck.CacheConfig{})
	ctx := context.Background()
	if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(cc)); err != nil {
		t.Fatal(err)
	}
	hit1, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(cc))
	if err != nil {
		t.Fatal(err)
	}
	hit1.Warnings[0].Var = "tampered"
	hit1.Notes = append(hit1.Notes, "tampered")
	hit2, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(cc))
	if err != nil {
		t.Fatal(err)
	}
	if hit2.Warnings[0].Var != "x" {
		t.Errorf("cache entry was mutated through a returned report: %+v", hit2.Warnings[0])
	}
}

func TestCacheDiskLayerAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	first := uafcheck.NewCache(uafcheck.CacheConfig{Dir: dir})
	if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(first)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("disk layer entries = %d err = %v, want 1", len(entries), err)
	}

	second := uafcheck.NewCache(uafcheck.CacheConfig{Dir: dir})
	rep, err := uafcheck.AnalyzeContext(ctx, "main.chpl", cachedProg, uafcheck.WithCache(second))
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Hits != 1 || st.DiskHits != 1 {
		t.Errorf("stats = %+v, want the hit served from disk", st)
	}
	if len(rep.Warnings) != 1 || rep.Warnings[0].Var != "x" {
		t.Errorf("disk round trip lost the warning: %+v", rep.Warnings)
	}
}

func TestAnalyzeFilesCacheFlags(t *testing.T) {
	cc := uafcheck.NewCache(uafcheck.CacheConfig{})
	ctx := context.Background()
	files := []uafcheck.FileInput{
		{Name: "a.chpl", Src: cachedProg},
		{Name: "b.chpl", Src: "proc main() {\n  var y: int = 1;\n  begin with (ref y) {\n    y = 2;\n  }\n}"},
	}
	cold := uafcheck.AnalyzeFilesContext(ctx, files, uafcheck.WithCache(cc))
	for i, fr := range cold.Files {
		if fr.Cached {
			t.Errorf("cold run file %d marked cached", i)
		}
	}
	warm := uafcheck.AnalyzeFilesContext(ctx, files, uafcheck.WithCache(cc))
	if warm.Summary.Files != 2 || warm.Summary.OK != 2 {
		t.Errorf("warm summary = %+v, want 2 files / 2 ok", warm.Summary)
	}
	for i, fr := range warm.Files {
		if !fr.Cached {
			t.Errorf("warm run file %d not served from cache", i)
		}
		if fr.Report == nil {
			t.Fatalf("warm run file %d has nil report", i)
		}
		if len(fr.Report.Warnings) != len(cold.Files[i].Report.Warnings) {
			t.Errorf("warm file %d warning count drifted", i)
		}
	}
	if st := cc.Stats(); st.Misses != 2 || st.Hits != 2 || st.Stores != 2 {
		t.Errorf("stats = %+v, want 2 misses / 2 hits / 2 stores", st)
	}
}
