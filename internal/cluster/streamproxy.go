package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"uafcheck/internal/cache"
	"uafcheck/internal/server"
	"uafcheck/internal/wire"
)

// The streaming proxies. Two invariants both endpoints enforce:
//
//  1. Backpressure forwards unchanged *before* any line streams: a
//     sub-request answering 429/503 while the edge response is still
//     unstarted is relayed verbatim — status, Retry-After, body — so a
//     cluster edge looks exactly like a single overloaded process.
//  2. A worker lost mid-stream yields degraded-flagged lines, never a
//     silently shorter stream: its unfinished files are rerouted once
//     to a ring successor, and whatever still cannot be computed is
//     emitted as a status "error" wire line naming the failure.

// lineScanner sizes NDJSON line scanners: start at 64 KiB, allow lines
// up to the body cap.
func lineScanner(r io.Reader, max int64) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), int(max))
	return sc
}

// completeLines is a bufio.SplitFunc like bufio.ScanLines that drops
// a final line without its newline instead of yielding it.
func completeLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), nil, nil
	}
	return 0, nil, nil
}

// lineName reads the "name" of a relayed wire line, the first field of
// wire.Result, without decoding the rest of the line.
func lineName(line []byte) (string, bool) {
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", false
	}
	if tok, err := dec.Token(); err != nil || tok != "name" {
		return "", false
	}
	tok, err := dec.Token()
	name, ok := tok.(string)
	return name, err == nil && ok
}

// errorLine renders the canonical status "error" wire line for a file
// the cluster could not get analyzed.
func errorLine(name string, err error) []byte {
	line, encErr := wire.NewResult(name, nil, err, false).Encode()
	if encErr != nil {
		b, _ := json.Marshal(map[string]string{"name": name, "error": err.Error()})
		return b
	}
	return line
}

// ------------------------------------------------------------- batch

// batchGroup is the slice of one batch routed to a single worker.
type batchGroup struct {
	worker string
	key    cache.Key // first file's route key; reroute anchor
	files  []server.BatchFile
}

// handleBatch fans one /v1/analyze-batch out across the ring and
// merges the per-file NDJSON lines back at the edge. File names are
// defaulted by original batch index *before* splitting, so every line
// is byte-identical to what the single-process server would emit
// (both name files with server.BatchName); lines arrive in completion
// order, exactly as they do from one process's worker pool.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if !c.front.DecodeBody(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		c.front.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	for i := range req.Files {
		req.Files[i].Name = server.BatchName(req.Files[i], i)
	}
	ring := c.aliveRing()
	if ring.Len() == 0 {
		c.front.WriteError(w, http.StatusServiceUnavailable, "no workers alive")
		return
	}

	// Module mode is one call-graph cell, not a bag of independent
	// files: the whole request goes to a single worker chosen by the
	// module label and option set — deliberately not the file contents —
	// the same worker that module /v1/delta lines of that label reach.
	// A module batch itself runs one-shot there.
	if req.Mode == "module" {
		key := server.ModuleRouteKey(req.ModuleLabel(), req.Options)
		fwd, _ := json.Marshal(req)
		c.forwardByKey(w, r, key, "/v1/analyze-batch", fwd)
		return
	}

	// SARIF is one aggregate document, not a line stream: route the
	// whole batch to a single worker (keyed by the full content) so the
	// cluster serves the identical document a single process would.
	if server.WantsSARIF(r) {
		var sb strings.Builder
		for _, f := range req.Files {
			sb.WriteString(f.Name)
			sb.WriteByte(0)
			sb.WriteString(f.Src)
			sb.WriteByte(0)
		}
		key := server.RouteKey("analyze-batch", "sarif", sb.String(), req.Options)
		fwd, _ := json.Marshal(req)
		c.forwardByKey(w, r, key, "/v1/analyze-batch", fwd)
		return
	}

	groups := c.groupFiles(ring, req)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// Fire every sub-batch, then barrier on response *headers* (not
	// bodies): a sub-batch rejected with 429/503 must forward to the
	// edge unchanged before any line streams. A shard whose worker is
	// unreachable takes the failover hop here, before the barrier.
	type subResp struct {
		resp *http.Response
		err  error
	}
	resps := make([]subResp, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := &groups[i]
			id, resp, err := c.failover(g.key, "", func(id string) (*http.Response, error) {
				return c.postSubBatch(ctx, r, id, g.files, req.Options)
			})
			g.worker = id
			resps[i] = subResp{resp: resp, err: err}
		}(i)
	}
	wg.Wait()

	for i, sr := range resps {
		if sr.err == nil && sr.resp.StatusCode != http.StatusOK {
			// Worker backpressure wins over partial progress: relay it
			// verbatim and drop the other sub-streams (their workers see
			// a cancelled request and release their slots).
			for j, other := range resps {
				if j != i && other.err == nil {
					other.resp.Body.Close()
				}
			}
			copyResponse(w, sr.resp, groups[i].worker)
			return
		}
	}

	em := server.NewNDJSON(w)
	em.Start()
	var lineWG sync.WaitGroup
	for i := range groups {
		lineWG.Add(1)
		go func(i int) {
			defer lineWG.Done()
			if resps[i].err != nil {
				// Both the owner and its successor were unreachable:
				// every file in the group gets a flagged error line.
				for _, f := range groups[i].files {
					em.WriteLine(errorLine(f.Name, fmt.Errorf("cluster: no worker reachable for batch shard: %v", resps[i].err))) //nolint:errcheck — a dead client just discards the stream
				}
				return
			}
			c.streamGroup(ctx, r, em, groups[i], resps[i].resp, req.Options, true)
		}(i)
	}
	lineWG.Wait()
}

// groupFiles splits batch files across ring owners, preserving input
// order within each group.
func (c *Coordinator) groupFiles(ring *Ring, req server.BatchRequest) []batchGroup {
	index := make(map[string]int)
	var groups []batchGroup
	for _, f := range req.Files {
		key := server.RouteKey("analyze", f.Name, f.Src, req.Options)
		owner := ring.Lookup(key)
		gi, ok := index[owner]
		if !ok {
			gi = len(groups)
			index[owner] = gi
			groups = append(groups, batchGroup{worker: owner, key: key})
		}
		groups[gi].files = append(groups[gi].files, f)
	}
	return groups
}

// postSubBatch sends one worker its shard of the batch.
func (c *Coordinator) postSubBatch(ctx context.Context, r *http.Request, worker string, files []server.BatchFile, opts server.RequestOptions) (*http.Response, error) {
	body, err := json.Marshal(server.BatchRequest{Files: files, Options: opts})
	if err != nil {
		return nil, err
	}
	return c.post(ctx, r, worker, "/v1/analyze-batch", body)
}

// streamGroup relays one sub-batch's NDJSON lines to the edge. If the
// stream dies before every file's line arrived (worker killed
// mid-batch), the unfinished files are rerouted once to another
// worker; files that still cannot be computed are emitted as flagged
// error lines — the stream is never silently short.
func (c *Coordinator) streamGroup(ctx context.Context, r *http.Request, em *server.NDJSON, g batchGroup, resp *http.Response, opts server.RequestOptions, mayReroute bool) {
	pendingByName := make(map[string]int, len(g.files))
	for _, f := range g.files {
		pendingByName[f.Name]++
	}
	pending := len(g.files)

	// A worker writes each line and its newline in one write, so a
	// worker killed mid-write leaves a trailing line with no newline.
	// The scanner yields only newline-terminated lines: the torn one is
	// never relayed, and its file stays pending and is rerouted below.
	sc := lineScanner(resp.Body, c.cfg.MaxBodyBytes)
	sc.Split(completeLines)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		em.WriteLine(append([]byte(nil), line...)) //nolint:errcheck
		c.rec.Add(CtrBatchLines, 1)
		if name, ok := lineName(line); ok && pendingByName[name] > 0 {
			pendingByName[name]--
			pending--
		}
	}
	scanErr := sc.Err()
	resp.Body.Close()
	if pending == 0 {
		return
	}
	if scanErr == nil {
		scanErr = fmt.Errorf("stream from worker %s ended %d lines early", g.worker, pending)
	}
	c.rec.Add(CtrWorkerLost, 1)
	c.log.Warn("cluster: batch shard lost mid-stream",
		"worker", g.worker, "missing", pending, "err", scanErr)

	remaining := make([]server.BatchFile, 0, pending)
	need := pendingByName
	for _, f := range g.files {
		if need[f.Name] > 0 {
			need[f.Name]--
			remaining = append(remaining, f)
		}
	}

	if mayReroute && ctx.Err() == nil {
		alt, rresp, err := c.failover(g.key, g.worker, func(id string) (*http.Response, error) {
			return c.postSubBatch(ctx, r, id, remaining, opts)
		})
		switch {
		case err == nil && rresp.StatusCode == http.StatusOK:
			c.streamGroup(ctx, r, em, batchGroup{worker: alt, key: g.key, files: remaining}, rresp, opts, false)
			return
		case err == nil:
			io.Copy(io.Discard, rresp.Body) //nolint:errcheck
			rresp.Body.Close()
			scanErr = fmt.Errorf("reroute to %s rejected: %s (original: %v)", alt, rresp.Status, scanErr)
		case !errors.Is(err, errNoWorkers):
			scanErr = fmt.Errorf("reroute to %s failed: %v (original: %v)", alt, err, scanErr)
		}
	}
	for _, f := range remaining {
		em.WriteLine(errorLine(f.Name, fmt.Errorf("cluster: worker lost mid-batch: %v", scanErr))) //nolint:errcheck
	}
}

// ------------------------------------------------------------- delta

// handleDelta proxies the incremental NDJSON stream line by line,
// reading it with the worker's own reader so malformed and over-limit
// streams answer with the worker's bytes. Routing is by (name,
// options) — not content — so re-sends of an edited file land on the
// worker holding that file's memo store, and the incremental speedup
// survives sharding. The worker's one Analyzer lives across
// requests, so forwarding each line as its own single-line /v1/delta
// call preserves both per-file ordering and memoization; lines answer
// in input order exactly as one process would answer them.
func (c *Coordinator) handleDelta(w http.ResponseWriter, r *http.Request) {
	if c.aliveRing().Len() == 0 {
		c.front.WriteError(w, http.StatusServiceUnavailable, "no workers alive")
		return
	}
	em := server.NewNDJSON(w)
	err := c.front.ReadDelta(w, r, em.WriteLine, func(line []byte, dr *server.DeltaRequest) error {
		key := server.RouteKey("delta", dr.Name, "", dr.Options)
		if dr.Module != "" || len(dr.Files) > 0 {
			// Module lines route by module label: successive snapshots
			// of one module land on the worker whose Analyzer holds its
			// memo, so the memo affinity is per module, not per file.
			key = server.ModuleRouteKey(dr.ModuleLabel(), dr.Options)
		}
		body := append(line, '\n')
		id, resp, err := c.failover(key, "", func(id string) (*http.Response, error) {
			return c.post(r.Context(), r, id, "/v1/delta", body)
		})
		switch {
		case err != nil:
			return em.WriteLine(errorLine(dr.Name, fmt.Errorf("cluster: no worker reachable: %v", err)))
		case resp.StatusCode != http.StatusOK && !em.Started():
			// Backpressure before the stream began: relay the 429/503
			// verbatim, Retry-After and all.
			copyResponse(w, resp, id)
			return errBackpressure
		case resp.StatusCode != http.StatusOK:
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			return em.WriteLine(errorLine(dr.Name, fmt.Errorf("cluster: worker %s answered %s: %s",
				id, resp.Status, bytes.TrimSpace(b))))
		}
		defer resp.Body.Close()
		c.rec.Add(CtrProxied, 1)
		rs := lineScanner(resp.Body, c.cfg.MaxBodyBytes)
		for rs.Scan() {
			out := bytes.TrimSpace(rs.Bytes())
			if len(out) == 0 || !json.Valid(out) {
				continue
			}
			if err := em.WriteLine(append([]byte(nil), out...)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		em.Start() // an empty input still answers 200 with an empty stream
	}
}

// errBackpressure ends a delta stream whose worker refused it before
// the first line was answered.
var errBackpressure = errors.New("cluster: worker backpressure relayed")
