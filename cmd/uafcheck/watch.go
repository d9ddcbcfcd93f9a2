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
// service rescans trees every poll); every poll runs through an for
// the whole session, and an analysis that hangs past hangTimeout is
// abandoned and retried on the next poll. Returns when ctx is
// cancelled; with showMetrics the session's aggregate telemetry —
// including the watch.* counters and the watchdog state gauge — prints
// on exit.
func runWatch(ctx context.Context, out io.Writer, an *uafcheck.Analyzer,
	roots []string, interval, hangTimeout time.Duration, showMetrics bool) {
	svc := watch.New(watch.Config{
		Roots:       roots,
		Interval:    interval,
		HangTimeout: hangTimeout,
		Out:         out,
		Analyzer:    an,
	})
	svc.Run(ctx)
	if showMetrics {
		fmt.Fprintf(out, "watch metrics:\n%s", indent(svc.Metrics().FormatText()))
	}
}
