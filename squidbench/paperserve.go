package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"squid"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/metrics"
	"squid/internal/relation"
	"squid/internal/server"
)

// paperServe runs the analyst's round trip as deployed: IMDb and DBLP
// at the paper's scale, each served by an in-process internal/server
// over loopback with cmd/squid-server's flag defaults, and one client
// that discovers a query from examples of a paper intent and then
// executes it. The selectivity cache is warmed by one pass over every
// intent before timing, as in a serving steady state. A run is
// setupReps sessions, each from a fresh build and fresh servers; the
// samples of all sessions are pooled.
func paperServe(r *run) error {
	sc := paperScale(r.cfg)
	sets := []*dataset{
		{name: "imdb", gen: func() (*relation.Database, []benchqueries.Benchmark) {
			g := datagen.GenerateIMDb(sc.IMDb)
			return g.DB, benchqueries.IMDbBenchmarks(g)
		}},
		{name: "dblp", gen: func() (*relation.Database, []benchqueries.Benchmark) {
			g := datagen.GenerateDBLP(sc.DBLP)
			return g.DB, benchqueries.DBLPBenchmarks(g)
		}},
	}
	// Ground truth over the original base databases, outside any timed
	// section.
	for _, ds := range sets {
		db, benches := ds.gen()
		in, err := paperIntents(ds.name, db, benches)
		if err != nil {
			return err
		}
		ds.intents = in
	}
	defer func() {
		for _, ds := range sets {
			ds.ep.close() // the run's result is already decided
		}
	}()
	var all paperSamples
	var setups []float64
	for session := 0; session < setupReps; session++ {
		setup, err := setUpServers(r, sets)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		if err := paperSession(r, sets, session, &all); err != nil {
			return err
		}
	}
	r.metric("setup_s", "s", quantile(setups, 0.5))
	r.metric("peak_rss_mb", "MB", all.peakRSS)
	r.median("discover_p50_ms", all.discMS)
	r.noteTail("discover", all.discMS)
	// The operation is the analyst's round trip: discover, then execute.
	r.opLatency(all.opMS)
	if len(all.execMS) > 0 {
		r.note("execute_p50_ms", quantile(all.execMS, 0.5), len(all.execMS))
		r.noteTail("execute", all.execMS)
		r.note("intents_per_s", float64(len(all.execMS))/all.elapsed.Seconds(), len(all.execMS))
		r.metric("f1_mean", "ratio", metrics.Mean(all.f1s))
	}
	if r.cfg.traced {
		recordCacheLayers(r, all.hits, all.misses, len(all.discMS))
	}
	return nil
}

// dataset is one served database with its intents.
type dataset struct {
	name    string
	gen     func() (*relation.Database, []benchqueries.Benchmark)
	intents []intent
	sys     *squid.System
	ep      *endpoint
}

// paperSamples pools the measurements of a run's sessions.
type paperSamples struct {
	discMS, execMS, opMS, f1s []float64
	hits, misses              uint64
	elapsed                   time.Duration
	peakRSS                   float64
}

// setUpServers replaces the previous session's servers with fresh
// builds of every dataset, each served on loopback, and returns the
// set-up time: the builds plus the server starts.
func setUpServers(r *run, sets []*dataset) (time.Duration, error) {
	for _, ds := range sets {
		if err := ds.ep.close(); err != nil {
			return 0, err
		}
		ds.ep, ds.sys = nil, nil
	}
	settle()
	dbs := make([]*relation.Database, len(sets))
	for i, ds := range sets {
		dbs[i], _ = ds.gen()
	}
	var builds time.Duration
	start := time.Now()
	for i, ds := range sets {
		sys, d, err := timedBuild(dbs[i])
		if err != nil {
			return 0, err
		}
		builds += d
		// cmd/squid-server's default: serial discoveries.
		p := sys.Params()
		p.Workers = 1
		sys.SetParams(p)
		ep, err := serve(sys, r.cfg.traced)
		if err != nil {
			return 0, err
		}
		ds.sys, ds.ep = sys, ep
	}
	setup := time.Since(start)
	if r.cfg.traced {
		var precomputed float64
		for _, ds := range sets {
			precomputed += float64(ds.sys.Stats().PrecomputedSize) / (1 << 20)
		}
		r.layer("adb.build_s", builds.Seconds())
		r.layer("adb.precomputed_mb", precomputed)
	}
	return setup, nil
}

// paperSession warms the caches with one pass over every intent, then
// runs whole rounds over all intents, each round in a seeded order with
// freshly sampled examples, for its share of the run's seconds.
func paperSession(r *run, sets []*dataset, session int, all *paperSamples) error {
	type op struct {
		ds *dataset
		in intent
	}
	var ops []op
	for _, ds := range sets {
		for _, in := range ds.intents {
			ops = append(ops, op{ds, in})
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()

	warm := rngFor(r.cfg.seed, fmt.Sprintf("paper-serve/session%d/warmup", session))
	for _, o := range ops {
		if _, err := o.ds.ep.discover(client, o.in.sample(warm)); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.in, err)
		}
	}

	rss := sampleRSS()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < r.cfg.seconds/setupReps; round++ {
		rng := rngFor(r.cfg.seed, fmt.Sprintf("paper-serve/session%d/round%d", session, round))
		for _, k := range rng.Perm(len(ops)) {
			o := ops[k]
			examples := o.in.sample(rng)
			op := r.nextOp()
			h0, m0, _ := o.ds.sys.CacheMetrics()
			var resp *server.DiscoverResponse
			var err error
			dDisc := timed(func() { resp, err = o.ds.ep.discover(client, examples) })
			h1, m1, _ := o.ds.sys.CacheMetrics()
			all.hits, all.misses = all.hits+h1-h0, all.misses+m1-m0
			if err != nil {
				r.attempt("discover", fmt.Errorf("%s: %w", o.in, err))
				continue
			}
			r.attempt("discover", wrapIntent(o.in, discoverCheck(examples, resp.Output)))
			serveDisc, discBytes := o.ds.ep.lastServe, o.ds.ep.lastBytes
			var rows []string
			dExec := timed(func() { rows, err = o.ds.ep.execute(client, resp.Query) })
			if err == nil && !sameValues(rows, resp.Output) {
				err = fmt.Errorf("executed plan returned %d rows, discovery output %d: the values differ", len(rows), len(resp.Output))
			}
			r.attempt("execute", wrapIntent(o.in, err))
			if err != nil {
				continue
			}
			all.discMS = append(all.discMS, ms(dDisc))
			all.execMS = append(all.execMS, ms(dExec))
			all.opMS = append(all.opMS, ms(dDisc+dExec))
			all.f1s = append(all.f1s, metrics.Compare(resp.Output, o.in.truth).FScore)
			if r.cfg.traced {
				r.attempt("trace", wrapIntent(o.in, tracePaperOp(r, op, o.ds.sys, resp, rows, dDisc, serveDisc, o.ds.ep.lastServe, discBytes)))
			}
		}
	}
	all.elapsed += time.Since(start)
	all.peakRSS = max(all.peakRSS, rss.stop())
	if r.cfg.traced {
		var kb float64
		for _, ds := range sets {
			resident, _ := ds.sys.AlphaDB().SelectivityCache().RowSetBytes()
			kb += float64(resident) / 1024
		}
		r.layer("adb.selcache_rowset_kb", kb)
	}
	return nil
}

// discoverCheck checks a discovery's output against the examples: an
// abduced query's filters come from contexts every example satisfies,
// so every example must be in its output.
func discoverCheck(examples, output []string) error {
	if e, missing := missingExample(examples, output); missing {
		return fmt.Errorf("example %q missing from the %d-row output", e, len(output))
	}
	return nil
}

func wrapIntent(in intent, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", in, err)
}

// tracePaperOp attributes one served round trip to its layers from the
// traces the serving layer recorded for its two requests: the loopback
// transport, the serving layer's own work around the library calls, and
// the phases of the discovery and the execution.
func tracePaperOp(r *run, op int, sys *squid.System, resp *server.DiscoverResponse, rows []string, rtt, serveDisc, serveExec time.Duration, respBytes int) error {
	recent := sys.Traces().Recent(2)
	if len(recent) != 2 || recent[0].Kind != "execute" || recent[1].Kind != "discover" {
		return errors.New("serving layer did not record the request traces")
	}
	execT, discT := recent[0], recent[1]
	r.keepTrace(op, discT)
	r.keepTrace(op, execT)
	// Each root span is the library call the handler made.
	discCall, execCall := discT.Spans[0].Dur, execT.Spans[0].Dur
	r.layer("server.discover_self_ms", ms(serveDisc-discCall))
	r.layer("server.execute_self_ms", ms(serveExec-execCall))
	r.layer("server.transport_ms", ms(rtt-serveDisc))
	r.layer("server.discover_resp_kb", float64(respBytes)/1024)
	recordDiscoverLayers(r, discT, discCall, len(resp.Output))
	recordExecuteLayers(r, execT, execCall, len(rows))
	return nil
}

// timed returns how long fn takes.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// endpoint is one in-process server on a loopback listener.
type endpoint struct {
	url  string
	hs   *http.Server
	done chan error
	// served receives each request's ServeHTTP time in traced runs.
	served chan time.Duration
	// lastServe and lastBytes describe the last answered request: its
	// ServeHTTP time (traced runs only) and its response body size.
	lastServe time.Duration
	lastBytes int
}

// serve starts internal/server over sys with cmd/squid-server's
// defaults (admission sized to GOMAXPROCS, 30s request timeout, 1s
// slow-query threshold).
func serve(sys *squid.System, traced bool) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(sys, server.Config{
		RequestTimeout:     30 * time.Second,
		SlowQueryThreshold: time.Second,
		Logger:             slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	ep := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = srv
	if traced {
		// One client sends one request at a time, so each request's
		// time is received before the next is sent.
		ep.served = make(chan time.Duration, 1)
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			start := time.Now()
			srv.ServeHTTP(w, req)
			ep.served <- time.Since(start)
		})
	}
	ep.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { ep.done <- ep.hs.Serve(ln) }()
	return ep, nil
}

// close shuts the server down and waits for its serve loop to end.
func (ep *endpoint) close() error {
	if ep == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ep.hs.Shutdown(ctx)
	if serr := <-ep.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (ep *endpoint) discover(c *http.Client, examples []string) (*server.DiscoverResponse, error) {
	var resp server.DiscoverResponse
	if err := ep.post(c, "/v1/discover", server.DiscoverRequest{Examples: examples}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// execute runs a discovered plan and returns its single projected
// column as strings.
func (ep *endpoint) execute(c *http.Client, q server.QueryJSON) ([]string, error) {
	var resp server.ExecuteResponse
	if err := ep.post(c, "/v1/execute", server.ExecuteRequest{Query: q}, &resp); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(resp.Rows))
	for _, row := range resp.Rows {
		if len(row) != 1 {
			return nil, fmt.Errorf("execute returned %d columns, want 1", len(row))
		}
		if s, ok := row[0].(string); ok {
			out = append(out, s)
		} else {
			out = append(out, fmt.Sprint(row[0]))
		}
	}
	return out, nil
}

// post sends one JSON request and decodes the 200 answer into out.
func (ep *endpoint) post(c *http.Client, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(ep.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if ep.served != nil {
		ep.lastServe = <-ep.served
	}
	if err != nil {
		return err
	}
	ep.lastBytes = len(data)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
