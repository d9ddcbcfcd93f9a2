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
// service rescans trees every poll); every poll runs through an with
// opts for the whole session. timeout is the one per-analysis clock:
// the analysis degrades at timeout, and one that hangs past it plus
// grace is abandoned and retried on the next poll. Returns when ctx is
// cancelled; with showMetrics the session's aggregate telemetry —
// including the watch.* counters and the watchdog state gauge — prints
// on exit.
func runWatch(ctx context.Context, out io.Writer, an *uafcheck.Analyzer, opts []uafcheck.Option,
	roots []string, interval, timeout time.Duration, showMetrics bool) {
	svc := watch.New(watch.Config{
		Roots:       roots,
		Interval:    interval,
		HangTimeout: timeout,
		Out:         out,
		Analyzer:    an,
		Options:     opts,
	})
	svc.Run(ctx)
	if showMetrics {
		fmt.Fprintf(out, "watch metrics:\n%s", indent(svc.Metrics().FormatText()))
	}
}
