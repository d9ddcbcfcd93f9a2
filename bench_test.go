// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md (PPS merging §III-C, pruning rules A-D §III-A) and substrate
// throughput baselines.
//
// Run all:
//
//	go test -bench=. -benchmem
package uafcheck_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/analysis"
	"uafcheck/internal/ccfg"
	"uafcheck/internal/corpus"
	"uafcheck/internal/eval"
	"uafcheck/internal/ir"
	"uafcheck/internal/obs"
	"uafcheck/internal/parser"
	"uafcheck/internal/pps"
	"uafcheck/internal/pst"
	"uafcheck/internal/repair"
	"uafcheck/internal/runtime"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

func mustRead(b *testing.B, path string) string {
	b.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return string(data)
}

func mustFrontend(b *testing.B, name, src string) (*sym.Info, *source.Diagnostics) {
	b.Helper()
	diags := &source.Diagnostics{}
	mod := parser.ParseSource(name, src, diags)
	if diags.HasErrors() {
		b.Fatalf("frontend:\n%s", diags)
	}
	info := sym.Resolve(mod, diags)
	if diags.HasErrors() {
		b.Fatalf("resolve:\n%s", diags)
	}
	return info, diags
}

// ---------------------------------------------------------------- Fig 1

// BenchmarkFigure1Analyze runs the complete pass (parse → resolve →
// lower → CCFG → prune → PPS → warnings) on the paper's Figure 1.
func BenchmarkFigure1Analyze(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := uafcheck.AnalyzeContext(context.Background(), "figure1.chpl", src)
		if err != nil || len(rep.Warnings) != 1 {
			b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
		}
	}
}

// ---------------------------------------------------------------- Fig 2

// BenchmarkFigure2CCFGConstruction isolates lowering + CCFG construction
// + pruning + frontier computation for Figure 1 (the paper's Figure 2
// artifact).
func BenchmarkFigure2CCFGConstruction(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	proc := info.Module.Proc("outerVarUse")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags := &source.Diagnostics{}
		prog := ir.Lower(info, proc, diags)
		g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
		if len(g.Nodes) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// ------------------------------------------------------------- Fig 3/7

// BenchmarkFigure3PPSExploration isolates the PPS exploration on the
// prebuilt Figure 1 CCFG (the paper's Figure 3 table).
func BenchmarkFigure3PPSExploration(b *testing.B) {
	benchExplore(b, "testdata/figure1.chpl", "outerVarUse", 1)
}

// BenchmarkFigure7BranchingPPS explores the Figure 6 program, whose
// branches fork the initial PPS set (the paper's Figure 7 table).
func BenchmarkFigure7BranchingPPS(b *testing.B) {
	benchExplore(b, "testdata/figure6.chpl", "multipleUse", 1)
}

func benchExplore(b *testing.B, path, procName string, wantUnsafe int) {
	src := mustRead(b, path)
	info, _ := mustFrontend(b, path, src)
	proc := info.Module.Proc(procName)
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pps.Explore(g, pps.Options{})
		if len(r.Unsafe) != wantUnsafe {
			b.Fatalf("unsafe=%d want %d", len(r.Unsafe), wantUnsafe)
		}
	}
}

// --------------------------------------------------------------- Table I

// BenchmarkTableICorpus runs the entire §V evaluation: generate the
// 5127-program synthetic suite and analyze every program. One iteration
// is one full Table I reproduction.
func BenchmarkTableICorpus(b *testing.B) {
	cases := corpus.Generate(corpus.DefaultParams(1711))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, _, _ := eval.RunTableI(context.Background(), cases, uafcheck.WithWorkers(1))
		if table.TruePositives != 63 || table.WarningsReported != 437 {
			b.Fatalf("table drifted: %+v", table)
		}
	}
}

// BenchmarkScheduleExplorers compares the three oracle drivers on
// Figure 1: random sampling, preemption-bounded, exhaustive (budgeted).
func BenchmarkScheduleExplorers(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	mod := info.Module
	b.Run("random-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.ExploreRandom(context.Background(), mod, info, "outerVarUse", 100, int64(i))
		}
	})
	b.Run("bounded-2", func(b *testing.B) {
		var runs int
		for i := 0; i < b.N; i++ {
			er := runtime.Explore(context.Background(), mod, info, "outerVarUse", 5000, 2)
			if len(er.UAF) == 0 {
				b.Fatal("bounded missed the bug")
			}
			runs = er.Runs
		}
		b.ReportMetric(float64(runs), "runs/op")
	})
	b.Run("exhaustive-5000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.Explore(context.Background(), mod, info, "outerVarUse", 5000, -1)
		}
	})
}

// BenchmarkTableICorpusGeneration isolates suite generation.
func BenchmarkTableICorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cases := corpus.Generate(corpus.DefaultParams(1711))
		if len(cases) != 5127 {
			b.Fatal("wrong corpus size")
		}
	}
}

// ------------------------------------------------------------- ablations

// syntheticFanout builds a proc with n sync-chained tasks and m branch
// diamonds — the knob for state-space ablations.
func syntheticFanout(tasks, branches int) string {
	var sb strings.Builder
	sb.WriteString("config const flag = true;\nproc fan() {\n  var x: int = 1;\n")
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  begin with (ref x) {\n    x += %d;\n    d%d$ = true;\n  }\n", i+1, i)
	}
	for i := 0; i < branches; i++ {
		fmt.Fprintf(&sb, "  if (flag) { writeln(%d); } else { writeln(0); }\n", i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  d%d$;\n", i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// BenchmarkExploreSeq and BenchmarkExplorePar compare the wave explorer
// at Parallelism 1 and 4 on a wide synthetic fanout whose frontiers are
// broad enough to cross the parallel threshold. The states/op metric
// must be identical between the two: the exploration is deterministic
// by construction regardless of worker count.
func BenchmarkExploreSeq(b *testing.B) { benchExploreWorkers(b, 1) }

func BenchmarkExplorePar(b *testing.B) { benchExploreWorkers(b, 4) }

func benchExploreWorkers(b *testing.B, par int) {
	src := syntheticFanout(6, 2)
	info, _ := mustFrontend(b, "fan.chpl", src)
	proc := info.Module.Proc("fan")
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		r := pps.Explore(g, pps.Options{Parallelism: par})
		states = r.Stats.StatesProcessed
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkAnalyzeCached measures the content-addressed cache's hit
// path against the full pipeline (the miss that populates it happens
// outside the timer).
func BenchmarkAnalyzeCached(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	ctx := context.Background()
	cache := uafcheck.WithCache(uafcheck.NewCache(uafcheck.CacheConfig{}))
	if _, err := uafcheck.AnalyzeContext(ctx, "figure1.chpl", src, cache); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := uafcheck.AnalyzeContext(ctx, "figure1.chpl", src, cache)
		if err != nil || len(rep.Warnings) != 1 {
			b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
		}
	}
}

// BenchmarkCacheMissDisk prices persistence on the cache-miss path. One
// op is one AnalyzeContext of a Table I file (seed 1711) that misses a
// cache with no disk tier (memory), with a disk tier written on the
// call (sync), or with one written by a background writer of queue
// depth 256 (async, as uafserve runs it). The files are the corpus's
// first 1,000 begin-free files or all of its task programs. Every op
// misses: the cache and its directory are replaced, outside the timer,
// each time the files run out. median-us/file is the median call;
// dropped/op counts async writes the full queue discarded.
func BenchmarkCacheMissDisk(b *testing.B) {
	var beginFree, tasks []corpus.TestCase
	for _, tc := range corpus.Generate(corpus.DefaultParams(1711)) {
		switch {
		case tc.HasBegin:
			tasks = append(tasks, tc)
		case len(beginFree) < 1000:
			beginFree = append(beginFree, tc)
		}
	}
	tiers := []struct {
		name string
		cfg  func(dir string) uafcheck.CacheConfig
	}{
		{"memory", func(string) uafcheck.CacheConfig { return uafcheck.CacheConfig{} }},
		{"sync", func(dir string) uafcheck.CacheConfig { return uafcheck.CacheConfig{Dir: dir} }},
		{"async", func(dir string) uafcheck.CacheConfig {
			return uafcheck.CacheConfig{Dir: dir, AsyncDiskWrites: 256}
		}},
	}
	ctx := context.Background()
	for _, pop := range []struct {
		name  string
		files []corpus.TestCase
	}{{"begin-free", beginFree}, {"tasks", tasks}} {
		for _, tier := range tiers {
			b.Run(pop.name+"/"+tier.name, func(b *testing.B) {
				root := b.TempDir()
				var cc *uafcheck.Cache
				var dir string
				var rounds, dropped int64
				fresh := func() {
					if cc != nil {
						cc.Close()
						dropped += cc.Stats().DroppedWrites
						os.RemoveAll(dir)
					}
					rounds++
					dir = fmt.Sprintf("%s/%d", root, rounds)
					cc = uafcheck.NewCache(tier.cfg(dir))
				}
				times := make([]time.Duration, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := i % len(pop.files)
					if f == 0 {
						b.StopTimer()
						fresh()
						b.StartTimer()
					}
					tc := pop.files[f]
					t0 := time.Now()
					if _, err := uafcheck.AnalyzeContext(ctx, tc.Name+".chpl", tc.Source, uafcheck.WithCache(cc)); err != nil {
						b.Fatal(err)
					}
					times[i] = time.Since(t0)
				}
				b.StopTimer()
				cc.Close()
				dropped += cc.Stats().DroppedWrites
				sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
				b.ReportMetric(float64(times[len(times)/2].Nanoseconds())/1e3, "median-us/file")
				b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
			})
		}
	}
}

// BenchmarkPPSMerge quantifies the §III-C merge optimization: identical
// (ASN, state-table) states are folded. Without it the same program
// explores many times more states.
func BenchmarkPPSMerge(b *testing.B) {
	src := syntheticFanout(4, 2)
	info, _ := mustFrontend(b, "fan.chpl", src)
	proc := info.Module.Proc("fan")
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	for _, merge := range []bool{true, false} {
		name := "on"
		if !merge {
			name = "off"
		}
		b.Run("merge="+name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				r := pps.Explore(g, pps.Options{DisableMerge: !merge})
				states = r.Stats.StatesProcessed
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}

// BenchmarkPruning quantifies rules A-D on a corpus slice dominated by
// safe tasks: pruning removes whole strands before exploration.
func BenchmarkPruning(b *testing.B) {
	params := corpus.Params{Seed: 5, Tests: 64, BeginTests: 64,
		UnsafeTests: 4, TrueSites: 12, AtomicFPTests: 4, FalseSites: 16}
	cases := corpus.Generate(params)
	for _, prune := range []bool{true, false} {
		name := "on"
		if !prune {
			name = "off"
		}
		b.Run("prune="+name, func(b *testing.B) {
			opts := analysis.DefaultOptions()
			opts.Prune = prune
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range cases {
					analysis.AnalyzeSource(cases[j].Name, cases[j].Source, opts)
				}
			}
		})
	}
}

// ------------------------------------------------------------- baselines

// BenchmarkBaselineComparison runs the §VI baseline comparison over the
// corpus's begin cases.
func BenchmarkBaselineComparison(b *testing.B) {
	params := corpus.Params{Seed: 9, Tests: 128, BeginTests: 64,
		UnsafeTests: 6, TrueSites: 18, AtomicFPTests: 6, FalseSites: 24}
	cases := corpus.Generate(params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := eval.RunBaselines(cases, analysis.DefaultOptions())
		if rep.ClearedByPPS <= 0 {
			b.Fatal("baseline comparison degenerate")
		}
	}
}

// ------------------------------------------------------------ extensions

// BenchmarkAtomicsExtension measures the Table I run under each atomics
// mode; the guard assertions double as the experiment's regression test
// (warnings 437 → 250 → 63).
func BenchmarkAtomicsExtension(b *testing.B) {
	cases := corpus.Generate(corpus.DefaultParams(1711))
	for _, mode := range []struct {
		name  string
		opt   uafcheck.Option
		wantW int
	}{
		{"default", uafcheck.WithAtomicsModel(false), 437},
		{"model", uafcheck.WithAtomicsModel(true), 250},
		{"count", uafcheck.WithAtomicsCounting(true), 63},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				table, _, _ := eval.RunTableI(context.Background(), cases, uafcheck.WithWorkers(1), mode.opt)
				if table.WarningsReported != mode.wantW {
					b.Fatalf("warnings = %d, want %d", table.WarningsReported, mode.wantW)
				}
			}
		})
	}
}

// BenchmarkRepairFigure1 measures the full synthesize-and-verify repair
// loop (static re-analysis + bounded dynamic schedule exploration).
func BenchmarkRepairFigure1(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repair.Repair("figure1.chpl", src, analysis.DefaultOptions())
		if err != nil || !res.Clean() {
			b.Fatalf("repair failed: %v / %+v", err, res)
		}
	}
}

// BenchmarkPSTBaseline measures the §VI Program Structure Tree MHP check
// on Figure 1 — the tree-based alternative the paper argues against.
func BenchmarkPSTBaseline(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	proc := info.Module.Proc("outerVarUse")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := pst.Build(info, proc)
		if len(tree.CheckUAF()) == 0 {
			b.Fatal("PST flagged nothing")
		}
	}
}

// ------------------------------------------------------------ substrates

// BenchmarkParserThroughput measures frontend bytes/sec over the
// concatenated corpus sources.
func BenchmarkParserThroughput(b *testing.B) {
	cases := corpus.Generate(corpus.Params{Seed: 3, Tests: 256, BeginTests: 32,
		UnsafeTests: 4, TrueSites: 8, AtomicFPTests: 4, FalseSites: 16})
	var total int64
	for i := range cases {
		total += int64(len(cases[i].Source))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cases {
			diags := &source.Diagnostics{}
			parser.ParseSource(cases[j].Name, cases[j].Source, diags)
			if diags.HasErrors() {
				b.Fatal("parse error")
			}
		}
	}
}

// BenchmarkInterpreterSchedule measures one random-schedule execution of
// the Figure 1 program on the task runtime.
func BenchmarkInterpreterSchedule(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runtime.Run(info.Module, info, runtime.Config{
			Entry:  "outerVarUse",
			Policy: runtime.NewRandomPolicy(int64(i)),
		})
		if r.Steps == 0 {
			b.Fatal("no steps")
		}
	}
}

// BenchmarkRaceDetection measures the vector-clock detector's overhead
// on one random schedule of Figure 1.
func BenchmarkRaceDetection(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	for _, detect := range []bool{false, true} {
		name := "off"
		if detect {
			name = "on"
		}
		b.Run("races="+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runtime.Run(info.Module, info, runtime.Config{
					Entry:       "outerVarUse",
					DetectRaces: detect,
					Policy:      runtime.NewRandomPolicy(int64(i)),
				})
			}
		})
	}
}

// ----------------------------------------------------------- telemetry

// BenchmarkObsOverhead measures the telemetry tax on the full pass:
// the analysis alone (Report.Metrics still populated), then the
// analysis with its report rendered as text and as a JSONL trace. The
// hot PPS loop accumulates into plain integers and flushes once per
// phase, so the spread should be render-sized, not per-state.
func BenchmarkObsOverhead(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	renders := []struct {
		name   string
		render func(uafcheck.Metrics)
	}{
		{"no-render", func(uafcheck.Metrics) {}},
		{"text", func(m uafcheck.Metrics) { _ = m.FormatText() }},
		{"jsonl", func(m uafcheck.Metrics) { m.WriteJSONL(io.Discard) }}, //nolint:errcheck
	}
	for _, r := range renders {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := uafcheck.AnalyzeContext(context.Background(), "figure1.chpl", src)
				if err != nil || len(rep.Warnings) != 1 {
					b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
				}
				r.render(rep.Metrics)
			}
		})
	}
}

// BenchmarkTracingOverhead pins the cost of span recording on the whole
// pipeline: the same analysis with tracing off, with a report-owned
// trace, and attached to an ambient caller trace (the server shape).
// The warning output is identical in all three; only the span tree and
// wall-clock histograms are added.
func BenchmarkTracingOverhead(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	run := func(b *testing.B, opts ...uafcheck.Option) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := uafcheck.AnalyzeContext(context.Background(), "figure1.chpl", src, opts...)
			if err != nil || len(rep.Warnings) != 1 {
				b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
			}
		}
	}
	b.Run("tracing=off", func(b *testing.B) { run(b) })
	b.Run("tracing=on", func(b *testing.B) { run(b, uafcheck.WithTracing(true)) })
	b.Run("tracing=ambient", func(b *testing.B) {
		tr := obs.NewTrace(obs.DeriveTraceID("bench"))
		ctx := obs.ContextWithTrace(context.Background(), tr)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := uafcheck.AnalyzeContext(ctx, "figure1.chpl", src, uafcheck.WithTracing(true))
			if err != nil || len(rep.Warnings) != 1 {
				b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
			}
		}
	})
}

// BenchmarkExploreObs isolates the recorder's cost on the raw PPS loop:
// nil recorder vs an attached one, same prebuilt graph.
func BenchmarkExploreObs(b *testing.B) {
	src := mustRead(b, "testdata/figure6.chpl")
	info, _ := mustFrontend(b, "figure6.chpl", src)
	proc := info.Module.Proc("multipleUse")
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	b.Run("obs=nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pps.Explore(g, pps.Options{})
		}
	})
	b.Run("obs=recorder", func(b *testing.B) {
		rec := obs.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pps.Explore(g, pps.Options{Obs: rec})
		}
	})
}

// BenchmarkScalingTasks charts PPS state growth against the number of
// concurrently live sync-chained tasks — the exponential heart of the
// approach that pruning and merging exist to tame.
func BenchmarkScalingTasks(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			src := syntheticFanout(n, 0)
			info, _ := mustFrontend(b, "fan.chpl", src)
			proc := info.Module.Proc("fan")
			diags := &source.Diagnostics{}
			prog := ir.Lower(info, proc, diags)
			g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
			b.ReportAllocs()
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				r := pps.Explore(g, pps.Options{})
				states = r.Stats.StatesProcessed
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}
