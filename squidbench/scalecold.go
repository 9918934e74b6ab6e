package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"squid"
	"squid/internal/metrics"
	"squid/internal/trace"
)

// coldSizes are the example-set sizes drawn from each planted group.
var coldSizes = []int{8, 12, 16}

// coldDiscoveries is how many example sets are sampled and discovered
// per (group, size) in a round; the first set's abduced query is also
// executed. A discovery costs about a thousandth of an execution, and
// its latency and accuracy depend on the examples drawn, so many draws
// per run keep the figures from hinging on a few of them.
const coldDiscoveries = 27

// scaleCold runs novel intents over the million-row retail database:
// one client makes library calls, and the selectivity cache is emptied
// before every discovery, so selectivity computation, row-set algebra
// and the engine's joins over the purchase facts do all the work.
func scaleCold(r *run) error {
	var all coldSamples
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		gd, err := loadGen(r.cfg)
		if err != nil {
			return err
		}
		// After loadGen, which may have generated and dropped a 1M-row
		// database: a run that generated the cache file and a run that
		// read it then build and measure from the same heap.
		settle()
		sys, d, err := timedBuild(gd.db)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if r.cfg.traced {
			recordBuildLayers(r, sys, d)
		}
		// Only the first build is measured: later builds run in a heap
		// that has already held and freed 1M-row αDBs, which made cold
		// discoveries slower and less repeatable. They are set up only
		// so setup_s is a median.
		if rep == 0 {
			if err := coldSession(r, sys, gd.groups, &all); err != nil {
				return err
			}
		}
	}
	r.metric("setup_s", "s", quantile(setups, 0.5))
	r.metric("peak_rss_mb", "MB", all.peakRSS)
	r.median("discover_p50_ms", all.discMS)
	// The operation is the cold discovery itself, so op_p50_ms is
	// discover_p50_ms and op_p95_ms is its tail.
	r.opLatency(all.discMS)
	// A 1M-row join's time follows the host's memory bandwidth: its
	// ten-run spread reached 0.30, past any bound, so the execution
	// figures are noted, not reported.
	if len(all.execMS) > 0 {
		r.note("execute_p50_ms", quantile(all.execMS, 0.5), len(all.execMS))
		r.note("intents_per_s", float64(len(all.execMS))/all.elapsed.Seconds(), len(all.execMS))
	}
	if len(all.f1s) > 0 {
		r.metric("f1_mean", "ratio", metrics.Mean(all.f1s))
	}
	return nil
}

// coldSamples pools the measurements of a run's sessions.
type coldSamples struct {
	discMS, execMS, f1s []float64
	elapsed             time.Duration
	peakRSS             float64
}

// coldSession runs whole rounds over every (group, size) pair, each
// round in a seeded order with freshly sampled examples, for the run's
// seconds.
func coldSession(r *run, sys *squid.System, groups [][]string, all *coldSamples) error {
	type op struct{ group, size int }
	var ops []op
	for g, members := range groups {
		for _, k := range coldSizes {
			if k > len(members) {
				return fmt.Errorf("group %d has %d members, fewer than %d examples", g, len(members), k)
			}
			ops = append(ops, op{g, k})
		}
	}
	cache := sys.AlphaDB().SelectivityCache()
	rss := sampleRSS()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < r.cfg.seconds; round++ {
		rng := rngFor(r.cfg.seed, fmt.Sprintf("scale-cold/round%d", round))
		// All of a round's discoveries run before its executions, so a
		// discovery is never timed in the wake of a 1M-row join.
		type pending struct {
			in       intent
			op       int
			examples []string
			d        *squid.Discovery
		}
		var round []pending
		for _, k := range rng.Perm(len(ops)) {
			o := ops[k]
			in := intent{"gen", fmt.Sprintf("group%d", o.group), o.size, groups[o.group]}
			for rep := 0; rep < coldDiscoveries; rep++ {
				p := pending{in: in, op: r.nextOp(), examples: in.sample(rng)}
				cache.Invalidate()
				h0, m0, _ := sys.CacheMetrics()
				var d *squid.Discovery
				var err error
				dDisc, t := r.call("discover", trace.PhaseDiscover, p.op, func(ctx context.Context) { d, err = sys.DiscoverContext(ctx, p.examples) })
				if err == nil {
					err = discoverCheck(p.examples, d.Output)
				}
				r.attempt("discover", wrapIntent(in, err))
				if err != nil {
					continue
				}
				p.d = d
				all.discMS = append(all.discMS, ms(dDisc))
				all.f1s = append(all.f1s, metrics.Compare(d.Output, in.truth).FScore)
				if t != nil {
					h1, m1, _ := sys.CacheMetrics()
					recordCacheLayers(r, h1-h0, m1-m0, 1)
					recordDiscoverLayers(r, t, dDisc, len(d.Output))
					resident, _ := cache.RowSetBytes()
					r.layer("adb.selcache_rowset_kb", float64(resident)/1024)
				}
				if rep == 0 {
					round = append(round, p)
				}
			}
		}
		for _, p := range round {
			plan := p.d.Plan()
			var res *squid.ExecResult
			var err error
			var before runtime.MemStats
			if r.cfg.traced {
				runtime.ReadMemStats(&before)
			}
			dExec, t := r.call("execute", trace.PhaseExecute, p.op, func(ctx context.Context) { res, err = sys.ExecuteContext(ctx, plan) })
			if t != nil {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				r.layer("engine.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			}
			var rows []string
			if err == nil {
				rows = res.Strings()
				if !sameValues(rows, p.d.Output) {
					err = fmt.Errorf("executed plan returned %d rows, discovery output %d: the values differ", len(rows), len(p.d.Output))
				}
			}
			r.attempt("execute", wrapIntent(p.in, err))
			if err != nil {
				continue
			}
			all.execMS = append(all.execMS, ms(dExec))
			if t != nil {
				recordExecuteLayers(r, t, dExec, len(rows))
			}
		}
	}
	all.elapsed += time.Since(start)
	all.peakRSS = max(all.peakRSS, rss.stop())
	return nil
}
