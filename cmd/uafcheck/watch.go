package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"uafcheck"
	"uafcheck/internal/watch"
)

// runWatch is the -watch entry point: a thin shim over the supervised
// internal/watch service. Roots may be files or directory trees (the
// service rescans trees every poll); newAnalyzer is called at startup
// and again whenever the watchdog abandons a wedged analyzer. Returns
// when ctx is cancelled; with showMetrics the session's aggregate
// telemetry — including the watch.* counters and the watchdog state
// gauge — prints on exit.
func runWatch(ctx context.Context, out io.Writer, newAnalyzer func() *uafcheck.Analyzer,
	roots []string, interval, hangTimeout time.Duration, showMetrics bool) {
	svc := watch.New(watch.Config{
		Roots:       roots,
		Interval:    interval,
		HangTimeout: hangTimeout,
		Out:         out,
		NewAnalyzer: newAnalyzer,
	})
	svc.Run(ctx)
	if showMetrics {
		fmt.Fprintf(out, "watch metrics:\n%s", indent(svc.Metrics().FormatText()))
	}
}
