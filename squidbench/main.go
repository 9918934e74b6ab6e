// Command squidbench is SQuID's end-to-end benchmark: one command that
// generates a workload's inputs from a seed, runs it closed-loop,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics the program's own trace spans record
// for the same calls).
//
// Usage, from the module root:
//
//	bash squidbench/run.sh --workload paper-serve --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads, the metrics and the reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"squid/internal/metrics"
	"squid/internal/trace"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// tiny shrinks every dataset to seconds-long smoke runs; only the
	// package's own tests set it. The command always runs at the
	// paper's scale.
	tiny bool
	// dir holds the generated-data cache, WAL scratch directories and
	// the span files of traced runs.
	dir string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-serve, scale-cold or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/data", "directory for cached data, WAL files and span logs")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", traceFlag))
	}
	cfg.traced = traceFlag == 1
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if m := res.missing(); len(m) > 0 {
		fatal(fmt.Errorf("%s: metrics not measured: %s (too few samples for a tail: raise -seconds)", cfg.workload, strings.Join(m, ", ")))
	}
	res.print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "squidbench:", err)
	os.Exit(1)
}

// runWorkload dispatches one run.
func runWorkload(cfg config) (*run, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: want > 0", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	r := newRun(cfg)
	var err error
	switch cfg.workload {
	case "paper-serve":
		err = paperServe(r)
	case "scale-cold":
		err = scaleCold(r)
	case "ingest":
		err = ingest(r)
	default:
		return nil, fmt.Errorf("-workload %q: want paper-serve, scale-cold or ingest", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.traced {
		if err := r.writeTraces(cfg.dir, cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// opClass counts one kind of operation.
type opClass struct {
	attempted, failed int
	// knownFault marks a class whose failures come from a documented
	// program fault: they are counted, but do not make the run
	// incorrect.
	knownFault bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's operations, checks and metrics.
type run struct {
	cfg config

	mu       sync.Mutex
	classes  map[string]*opClass
	messages []string // first failure messages, for stderr
	notes    []string // informational figures printed before the result
	badCheck bool     // a whole-run check failed

	e2e      map[string]metric // end-to-end metrics (untraced runs)
	traceE2E map[string]metric // the traced run's own end-to-end numbers
	layers   map[string][]float64
	traces   []opTrace    // every traced call, for the span log
	ops      atomic.Int64 // operation ids for the span log
}

// opTrace is one call's trace as the program recorded it, tagged with
// the benchmark operation it belongs to.
type opTrace struct {
	Op    int              `json:"op"`
	Trace *trace.TraceJSON `json:"trace"`
}

func newRun(cfg config) *run {
	return &run{
		cfg:      cfg,
		classes:  make(map[string]*opClass),
		e2e:      make(map[string]metric),
		traceE2E: make(map[string]metric),
		layers:   make(map[string][]float64),
	}
}

// nextOp returns a fresh operation id: the spans of one operation share
// it.
func (r *run) nextOp() int { return int(r.ops.Add(1)) }

// call times fn, one end-to-end call of operation op into the program.
// In a traced run fn's context carries the root span (of phase root) of
// a fresh trace recorder, so the program records its own per-phase
// spans of this very call; the finished trace is kept for the span log
// and returned. In an untraced run the context carries nothing and the
// trace is nil.
func (r *run) call(kind string, root trace.Phase, op int, fn func(ctx context.Context)) (time.Duration, *trace.Trace) {
	if !r.cfg.traced {
		t0 := time.Now()
		fn(context.Background())
		return time.Since(t0), nil
	}
	rec := trace.NewRecorder(0)
	sp := rec.Root(root, "")
	ctx := trace.NewContext(context.Background(), sp)
	t0 := time.Now()
	fn(ctx)
	d := time.Since(t0)
	sp.End()
	t := rec.Finish(kind, "")
	r.keepTrace(op, t)
	return d, t
}

// keepTrace stores one traced call of operation op for the span log.
func (r *run) keepTrace(op int, t *trace.Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces = append(r.traces, opTrace{op, t.JSON()})
}

func (r *run) class(name string) *opClass {
	c := r.classes[name]
	if c == nil {
		c = &opClass{}
		r.classes[name] = c
	}
	return c
}

// attempt records one attempted operation of class name; err, when
// non-nil, marks it failed.
func (r *run) attempt(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.class(name)
	c.attempted++
	if err != nil {
		c.failed++
		if len(r.messages) < 8 {
			r.messages = append(r.messages, name+": "+err.Error())
		}
	}
}

// knownFault marks class name as failing because of a documented
// program fault.
func (r *run) knownFault(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.class(name).knownFault = true
}

// check records a whole-run check; a failure makes the run incorrect.
func (r *run) check(what string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.badCheck = true
	r.messages = append(r.messages, "check "+what+": "+err.Error())
}

// metric records an end-to-end metric: in an untraced run it is
// reported, in a traced run it is printed beside the per-layer metrics
// so the tracing overhead can be read off.
func (r *run) metric(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.traced {
		r.traceE2E[name] = metric{v, unit}
	} else {
		r.e2e[name] = metric{v, unit}
	}
}

// layer records one operation's value of a per-layer metric; the
// reported value is the mean over operations.
func (r *run) layer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers[name] = append(r.layers[name], v)
}

// opLatency records the latency of the workload's operation, the unit
// of work its client waits for: the median always, and the p95 where at
// least minTail samples lie beyond it (a run too short for that misses
// op_p95_ms, which main reports as an error).
func (r *run) opLatency(samplesMS []float64) {
	r.median("op_p50_ms", samplesMS)
	if v, ok := tail(samplesMS, 0.95); ok {
		r.metric("op_p95_ms", "ms", v)
	}
}

// median records the median of samplesMS as metric name, in ms; with no
// samples there is no metric.
func (r *run) median(name string, samplesMS []float64) {
	if len(samplesMS) > 0 {
		r.metric(name, "ms", quantile(samplesMS, 0.5))
	}
}

// note prints a measured figure on an informational line instead of
// reporting it as a metric: it swings with the host more than a bound
// can absorb (README, Steadiness).
func (r *run) note(name string, v float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf("info %s=%.4f over %d samples", name, v, samples))
}

// noteTail notes the 95th percentile of samplesMS where at least
// minTail samples lie beyond it.
func (r *run) noteTail(prefix string, samplesMS []float64) {
	if v, ok := tail(samplesMS, 0.95); ok {
		r.note(prefix+"_p95_ms", v, len(samplesMS))
	}
}

// e2eUnits fixes each end-to-end metric's unit. Every workload reports
// every one of them: the result line must hold them all.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"peak_rss_mb":     "MB",
	"discover_p50_ms": "ms",
	"op_p50_ms":       "ms",
	"op_p95_ms":       "ms",
	"f1_mean":         "ratio",
}

// layerUnits fixes the unit of each per-layer metric every workload
// exercises: the build, and the discovery with its selectivity cache.
// These are the traced run's result line.
var layerUnits = map[string]string{
	"adb.build_s":              "s",
	"adb.precomputed_mb":       "MB",
	"adb.resolve_ms":           "ms",
	"adb.selcache_hit_ratio":   "ratio",
	"adb.selcache_misses":      "count",
	"adb.selcache_rowset_kb":   "KB",
	"abduction.contexts_ms":    "ms",
	"abduction.contexts":       "count",
	"abduction.abduce_ms":      "ms",
	"abduction.intersect_ms":   "ms",
	"abduction.output_rows":    "count",
	"discover.unattributed_ms": "ms",
}

// infoLayerUnits fixes the unit of each per-layer metric only some
// workloads exercise (the serving layer on paper-serve, the engine on
// paper-serve and scale-cold, the write path on ingest). A result line
// holds only metrics every workload reports, so these are printed on
// "layer" lines before it.
var infoLayerUnits = map[string]string{
	"server.discover_self_ms": "ms",
	"server.execute_self_ms":  "ms",
	"server.transport_ms":     "ms",
	"server.discover_resp_kb": "KB",
	"engine.execute_ms":       "ms",
	"engine.alloc_mb":         "MB",
	"engine.rows_out":         "count",
	"execute.unattributed_ms": "ms",
	"adb.insert_batch_ms":     "ms",
	"adb.epoch_retired":       "count",
	"adb.retained_mb":         "MB",
	"wal.append_ms":           "ms",
	"wal.barrier_ms":          "ms",
	"wal.bytes_per_row":       "B",
	"insert.unattributed_ms":  "ms",
}

// correct reports whether no operation outside a known-fault class
// failed and no whole-run check failed.
func (r *run) correct() bool {
	if r.badCheck {
		return false
	}
	for _, c := range r.classes {
		if c.failed > 0 && !c.knownFault {
			return false
		}
	}
	return true
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *run) result() result {
	res := result{Correct: r.correct(), Metrics: r.e2e}
	for _, c := range r.classes {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	if r.cfg.traced {
		res.Metrics = make(map[string]metric, len(layerUnits))
		for name, vs := range r.layers {
			if unit, ok := layerUnits[name]; ok {
				res.Metrics[name] = metric{metrics.Mean(vs), unit}
			}
		}
	}
	return res
}

// missing lists the metrics the result line should hold and does not.
func (r *run) missing() []string {
	want := e2eUnits
	if r.cfg.traced {
		want = layerUnits
	}
	got := r.result().Metrics
	var out []string
	for name := range want {
		if _, ok := got[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// print writes the per-class counts, the failure messages, the traced
// run's own end-to-end numbers, and last the result line.
func (r *run) print(f *os.File) {
	names := make([]string, 0, len(r.classes))
	for name := range r.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := r.classes[name]
		note := ""
		if c.knownFault {
			note = " (known fault)"
		}
		fmt.Fprintf(f, "ops %-10s attempted=%d failed=%d%s\n", name, c.attempted, c.failed, note)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	for _, m := range r.messages {
		fmt.Fprintln(os.Stderr, "squidbench: failed", m)
	}
	if r.cfg.traced {
		names := make([]string, 0, len(r.layers))
		for name := range r.layers {
			if _, ok := infoLayerUnits[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(f, "layer %s=%.4f %s\n", name, metrics.Mean(r.layers[name]), infoLayerUnits[name])
		}
		b, _ := json.Marshal(r.traceE2E) // map of plain values: cannot fail
		fmt.Fprintf(f, "traced end-to-end %s\n", b)
	}
	b, _ := json.Marshal(r.result()) // plain values: cannot fail
	fmt.Fprintln(f, string(b))
}

// writeTraces stores every kept trace as one JSON line under dir.
func (r *run) writeTraces(dir, workload string, seed int64) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range r.traces {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// rssSampler tracks the largest resident set size seen while a measured
// section runs, so set-up and after-run checks do not count.
type rssSampler struct {
	quit chan struct{}
	done chan float64
}

// sampleRSS starts sampling every 5ms until stop.
func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan float64)}
	go func() {
		peak := residentMB()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, residentMB())
			case <-s.quit:
				s.done <- max(peak, residentMB())
				return
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.done
}

// residentMB reads the process's resident set size (VmRSS).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to the Go runtime's view of mapped memory.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
