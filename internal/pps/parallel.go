package pps

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file schedules the compute phase of a wave across
// Options.Parallelism workers. The workers share one atomic next-index
// counter over the frontier: each takes the next unclaimed index until
// the frontier is drained. Which worker computes which state is
// deliberately irrelevant: every output lands in the outs slot of its
// frontier index and the commit loop consumes the slots in order, so
// scheduling noise can never reach the Result.
//
// minParallelFrontier keeps tiny waves on the inline path — below it
// the goroutine handoff costs more than the states themselves, and the
// small programs of the paper's figures never leave the fast path.
const minParallelFrontier = 8

// computeWave runs computeState for every frontier state and returns
// the per-index outputs. The second return is true when a context
// cancellation interrupted the wave — the partial outputs must then be
// discarded, never committed.
func (e *explorer) computeWave(frontier []*PPS) ([]*stepOut, bool) {
	outs := make([]*stepOut, len(frontier))
	if e.par <= 1 || len(frontier) < minParallelFrontier {
		for i, p := range frontier {
			if e.opts.Ctx != nil && i%ctxCheckInterval == 0 && e.opts.Ctx.Err() != nil {
				return nil, true
			}
			outs[i] = e.computeState(p)
		}
		return outs, false
	}

	workers := e.par
	if workers > len(frontier) {
		workers = len(frontier)
	}
	var (
		next       atomic.Int64
		stop       atomic.Bool
		panicMu    sync.Mutex
		panicVal   any
		panicStack []byte
		wg         sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic must not escape the worker goroutine: it would kill
			// the process instead of reaching the analysis layer's
			// recover-into-Degradation ladder. Capture the first one,
			// stop the siblings, and re-raise it on the exploring
			// goroutine below.
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
						panicStack = debug.Stack()
					}
					panicMu.Unlock()
					stop.Store(true)
				}
			}()
			polled := 0
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(frontier) {
					return
				}
				if e.opts.Ctx != nil {
					if polled++; polled%ctxCheckInterval == 0 && e.opts.Ctx.Err() != nil {
						stop.Store(true)
						return
					}
				}
				outs[i] = e.computeState(frontier[i])
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(fmt.Sprintf("pps: wave worker panicked: %v\n%s", panicVal, panicStack))
	}
	if stop.Load() {
		return nil, true
	}
	return outs, false
}
