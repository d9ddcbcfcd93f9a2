package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uafcheck"
	"uafcheck/internal/cache"
	"uafcheck/internal/client"
	"uafcheck/internal/obs"
	"uafcheck/internal/server"
)

// Cluster counter names on the coordinator's /metrics.
const (
	// CtrProxied counts requests forwarded to a worker (any outcome).
	CtrProxied = "cluster.proxied"
	// CtrReroutes counts failover hops: a candidate worker was
	// unreachable and the request moved to its ring successor.
	CtrReroutes = "cluster.reroutes"
	// CtrWorkerLost counts transport failures against workers.
	CtrWorkerLost = "cluster.worker_lost"
	// CtrBatchLines counts NDJSON result lines merged at the edge.
	CtrBatchLines = "cluster.batch_lines"
	// CtrMembershipChanges counts ring rebuilds from health probes.
	CtrMembershipChanges = "cluster.membership_changes"
)

// WorkerSpec names one worker replica: a stable logical ID (the ring
// hashes IDs, so routing survives every port changing across a fleet
// restart) and the base URL it currently answers on.
type WorkerSpec struct {
	ID  string
	URL string
}

// Config wires a Coordinator.
type Config struct {
	// Workers is the configured fleet. Liveness within it is managed by
	// health probes; membership of the routing ring follows liveness.
	Workers []WorkerSpec
	// Client tunes the worker-facing HTTP client. NoStatusRetry is
	// forced on: worker backpressure must reach the edge, not retries.
	Client client.Config
	// ProbeInterval paces the health prober (0 = 2s; negative disables
	// background probing — tests drive Probe explicitly).
	ProbeInterval time.Duration
	// MaxBodyBytes bounds a request body (0 = 8 MiB), mirroring the
	// worker-side limit so oversized requests die at the edge.
	MaxBodyBytes int64
	// Logger receives operational log records (nil = slog.Default()).
	Logger *slog.Logger
}

// workerHealth is one worker's probed liveness state.
type workerHealth struct {
	alive       bool
	consecFails int64
	lastErr     string
}

// Coordinator terminates cluster HTTP: it owns the routing ring, the
// worker health prober, and the fan-out/merge logic for streaming
// endpoints. Create with New, expose via Handler, stop with Shutdown.
type Coordinator struct {
	cfg   Config
	urls  map[string]string // worker ID -> base URL
	order []string          // configured worker IDs, in config order
	hc    *client.Client    // request path: retries transport errors only
	probe *client.Client    // probe path: single fast attempt
	rec   *obs.Recorder
	log   *slog.Logger
	start time.Time

	ring atomic.Pointer[Ring] // over currently-alive worker IDs

	mu     sync.Mutex
	health map[string]*workerHealth

	stop chan struct{}
	done chan struct{}
}

// New builds a Coordinator, runs one synchronous probe round so the
// initial ring reflects real liveness, and starts the background
// prober (unless ProbeInterval < 0).
func New(cfg Config) *Coordinator {
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ccfg := cfg.Client
	ccfg.NoStatusRetry = true
	if ccfg.Budget <= 0 {
		// Sub-requests carry whole batch streams; give them room.
		ccfg.Budget = 5 * time.Minute
	}
	c := &Coordinator{
		cfg:    cfg,
		urls:   make(map[string]string, len(cfg.Workers)),
		order:  make([]string, 0, len(cfg.Workers)),
		hc:     client.New(ccfg),
		probe:  client.New(client.Config{MaxAttempts: 1, Budget: 3 * time.Second, NoStatusRetry: true}),
		rec:    obs.New(),
		log:    cfg.Logger,
		start:  time.Now(),
		health: make(map[string]*workerHealth, len(cfg.Workers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, w := range cfg.Workers {
		c.urls[w.ID] = w.URL
		c.order = append(c.order, w.ID)
		c.health[w.ID] = &workerHealth{alive: true}
	}
	c.ring.Store(NewRing(c.order, 0))
	c.Probe()
	if cfg.ProbeInterval > 0 {
		go c.probeLoop()
	} else {
		close(c.done)
	}
	return c
}

// Shutdown stops the prober. In-flight proxied requests finish under
// their own contexts; the caller drains its http.Server separately.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coordinator) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Probe()
		}
	}
}

// Probe runs one health round over every configured worker and
// rebuilds the ring when liveness changed. A worker is alive when its
// /healthz answers 200 (a draining or wedged worker answers 503 and
// leaves the ring until it recovers). Safe for concurrent use.
func (c *Coordinator) Probe() {
	type verdict struct {
		id    string
		alive bool
		err   string
	}
	verdicts := make([]verdict, len(c.order))
	var wg sync.WaitGroup
	for i, id := range c.order {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			v := verdict{id: id}
			resp, err := c.probe.Get(context.Background(), c.urls[id]+"/healthz")
			switch {
			case err != nil:
				v.err = err.Error()
			case resp.StatusCode != http.StatusOK:
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				v.err = "healthz: " + resp.Status
			default:
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				v.alive = true
			}
			verdicts[i] = v
		}(i, id)
	}
	wg.Wait()

	c.mu.Lock()
	changed := false
	alive := make([]string, 0, len(c.order))
	for _, v := range verdicts {
		h := c.health[v.id]
		if h.alive != v.alive {
			changed = true
		}
		h.alive = v.alive
		h.lastErr = v.err
		if v.alive {
			h.consecFails = 0
			alive = append(alive, v.id)
		} else {
			h.consecFails++
		}
	}
	c.mu.Unlock()

	if changed {
		c.ring.Store(NewRing(alive, 0))
		c.rec.Add(CtrMembershipChanges, 1)
		c.log.Info("cluster: ring membership changed", "alive", alive, "configured", len(c.order))
	}
}

// aliveRing returns the current routing ring.
func (c *Coordinator) aliveRing() *Ring { return c.ring.Load() }

// Handler returns the coordinator's route table: the full /v1/ wire
// contract proxied over the ring, and the admin surfaces.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", c.proxySingle("analyze", "/v1/analyze"))
	mux.HandleFunc("POST /v1/repair", c.proxySingle("repair", "/v1/repair"))
	mux.HandleFunc("POST /v1/analyze-batch", c.handleBatch)
	mux.HandleFunc("POST /v1/delta", c.handleDelta)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{\"status\":\"alive\"}\n")) //nolint:errcheck
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.PromSink{W: w}.Emit(c.rec.Snapshot()) //nolint:errcheck
	})
	mux.HandleFunc("GET /statusz", c.handleStatusz)
	return mux
}

// forwardHeaders picks the request headers that must reach the worker:
// content negotiation (SARIF), tracing, and body typing.
func forwardHeaders(r *http.Request) http.Header {
	h := http.Header{}
	for _, k := range []string{"Accept", "Content-Type", "Traceparent"} {
		if v := r.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	return h
}

// copyResponse relays a worker response to the edge verbatim: status,
// contract headers, and the (possibly streaming) body, flushed per
// chunk so NDJSON consumers see lines as workers produce them.
func copyResponse(w http.ResponseWriter, resp *http.Response, workerID string) {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Retry-After", "Traceparent",
		"X-Uafserve-Dedup", "X-Uafserve-Cache", "Sunset"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Uafserve-Worker", workerID)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			w.Write(buf[:n]) //nolint:errcheck — a dead client just discards the stream
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// errorJSON writes the same error envelope shape the worker tier uses.
func (c *Coordinator) errorJSON(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests || code >= 500 {
		w.Header().Set("Retry-After", "2")
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%s}\n", mustQuote(msg))
}

func mustQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// proxySingle forwards one body-addressed request (analyze, repair) to
// the content-key owner, with one failover hop to the ring successor
// when the owner is unreachable. Any HTTP answer from a worker — 200,
// 429 with Retry-After, 503 — is definitive and relayed unchanged.
func (c *Coordinator) proxySingle(kind, path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
		if err != nil {
			c.errorJSON(w, http.StatusRequestEntityTooLarge, "reading body: "+err.Error())
			return
		}
		var req server.AnalyzeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			c.errorJSON(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
			return
		}
		key := server.RouteKey(kind, req.Name, req.Src, req.Options)
		c.forwardByKey(w, r, key, path, body)
	}
}

// forwardByKey routes body to the key owner's /v1 path, trying up to
// two ring candidates on transport failure.
func (c *Coordinator) forwardByKey(w http.ResponseWriter, r *http.Request, key cache.Key, path string, body []byte) {
	cands := c.aliveRing().LookupN(key, 2)
	if len(cands) == 0 {
		c.errorJSON(w, http.StatusServiceUnavailable, "no workers alive")
		return
	}
	var lastErr error
	for i, id := range cands {
		if i > 0 {
			c.rec.Add(CtrReroutes, 1)
		}
		resp, err := c.hc.DoWithHeaders(r.Context(), http.MethodPost,
			c.urls[id]+path, forwardHeaders(r), body)
		if err != nil {
			lastErr = err
			c.rec.Add(CtrWorkerLost, 1)
			continue
		}
		c.rec.Add(CtrProxied, 1)
		copyResponse(w, resp, id)
		return
	}
	c.errorJSON(w, http.StatusBadGateway,
		fmt.Sprintf("all candidate workers unreachable: %v", lastErr))
}

// ----------------------------------------------------------- admin

// workerRows builds the per-worker component rows for /healthz and
// /statusz: "worker:<id>" with liveness ("ok" / "dead") and probe
// failure streaks — the coordinator-side mirror of each worker's own
// health surface.
func (c *Coordinator) workerRows() (rows map[string]server.ComponentStatus, aliveCount int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows = make(map[string]server.ComponentStatus, len(c.order)+1)
	for _, id := range c.order {
		h := c.health[id]
		st := server.ComponentStatus{State: "ok", Detail: map[string]int64{
			"consecutive_probe_failures": h.consecFails,
		}}
		if !h.alive {
			st.State = "dead"
		} else {
			aliveCount++
		}
		rows["worker:"+id] = st
	}
	rows["ring"] = server.ComponentStatus{State: "ok", Detail: map[string]int64{
		"members":    int64(aliveCount),
		"configured": int64(len(c.order)),
	}}
	return rows, aliveCount
}

// clusterState folds worker liveness into the coordinator verdict:
// every worker alive is "ok", a partial fleet is "degraded" (still
// serving, capacity and cache locality impaired), an empty ring is
// unready (503 — nothing can serve analyses).
func (c *Coordinator) clusterState() (rows map[string]server.ComponentStatus, status string, code int) {
	rows, alive := c.workerRows()
	switch {
	case alive == 0:
		return rows, "unready", http.StatusServiceUnavailable
	case alive < len(c.order):
		return rows, "degraded", http.StatusOK
	default:
		return rows, "ok", http.StatusOK
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rows, status, code := c.clusterState()
	body, _ := json.Marshal(map[string]any{
		"status":     status,
		"mode":       "coordinator",
		"version":    uafcheck.Version,
		"components": rows,
	})
	if code != http.StatusOK {
		w.Header().Set("Retry-After", strconv.Itoa(int(c.cfg.ProbeInterval/time.Second)+1))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n')) //nolint:errcheck
}

func (c *Coordinator) handleStatusz(w http.ResponseWriter, r *http.Request) {
	rows, status, _ := c.clusterState()
	m := c.rec.Snapshot()
	counters := make(map[string]int64)
	for _, name := range m.CounterNames() {
		counters[name] = m.Counter(name)
	}
	body, _ := json.Marshal(map[string]any{
		"version":    uafcheck.Version,
		"mode":       "coordinator",
		"uptime_s":   int64(time.Since(c.start).Seconds()),
		"status":     status,
		"components": rows,
		"counters":   counters,
		"breakers":   c.hc.HostStates(),
	})
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n')) //nolint:errcheck
}
