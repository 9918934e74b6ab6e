package main

import (
	"time"

	"squid"
	"squid/internal/trace"
)

// A traced run attaches a trace recorder to every call it measures (the
// serving layer attaches its own to every request), and reads each
// layer's figure from the spans the program records for that very call:
// resolve (Epoch.CommonColumns), contexts (abduction.DiscoverContexts),
// selectivity and abduce (Algorithm 1), rows and intersect (the index
// row-set algebra), the engine's stages, and the write path's
// publish_wait, apply, publish, wal_append and wal_barrier. What a call
// spends outside every recorded phase is its unattributed remainder.

// phaseSums adds up the durations of t's spans by phase, grouping spans
// included; callers sum only phases that do not nest in one another.
func phaseSums(t *trace.Trace) map[trace.Phase]time.Duration {
	out := make(map[trace.Phase]time.Duration)
	for _, sp := range t.Spans {
		out[sp.Phase] += sp.Dur
	}
	return out
}

// counterSum adds up counter c over t's spans of phase p.
func counterSum(t *trace.Trace, p trace.Phase, c trace.Counter) int64 {
	var n int64
	for _, sp := range t.Spans {
		if sp.Phase == p {
			n += sp.Counters[c.String()]
		}
	}
	return n
}

// recordDiscoverLayers reports one discovery's per-layer values from its
// trace t; e2e is the discovery call's time, and what it does not spend
// in a recorded phase is reported as unattributed. The candidate base
// queries of one discovery may run on parallel workers, so on a
// discovery with several candidates the phases can add up to more than
// e2e and the remainder can be negative.
func recordDiscoverLayers(r *run, t *trace.Trace, e2e time.Duration, outputRows int) {
	ph := phaseSums(t)
	abduce := ph[trace.PhaseSelectivity] + ph[trace.PhaseAbduce]
	intersect := ph[trace.PhaseRows] + ph[trace.PhaseIntersect]
	r.layer("adb.resolve_ms", ms(ph[trace.PhaseResolve]))
	r.layer("abduction.contexts_ms", ms(ph[trace.PhaseContexts]))
	r.layer("abduction.contexts", float64(counterSum(t, trace.PhaseContexts, trace.CounterContexts)))
	r.layer("abduction.abduce_ms", ms(abduce))
	r.layer("abduction.intersect_ms", ms(intersect))
	r.layer("abduction.output_rows", float64(outputRows))
	r.layer("discover.unattributed_ms", ms(e2e-ph[trace.PhaseResolve]-ph[trace.PhaseContexts]-abduce-intersect))
}

// recordExecuteLayers reports one execution's per-layer values from its
// trace t: the engine's stages (leaf stage spans, since an intersect
// branch nests its own scans and joins), the rows returned, and the
// remainder of e2e outside the stages.
func recordExecuteLayers(r *run, t *trace.Trace, e2e time.Duration, rows int) {
	stages := t.PhaseTotals()[trace.PhaseStage.String()]
	r.layer("engine.execute_ms", ms(stages))
	r.layer("engine.rows_out", float64(rows))
	r.layer("execute.unattributed_ms", ms(e2e-stages))
}

// recordInsertLayers reports one acknowledged InsertBatchContext call's
// per-layer values from its trace t: the αDB's lock wait, copy-on-write
// apply and epoch publish (without the WAL append the publish makes),
// the WAL append, the WAL barrier, and the remainder of e2e.
func recordInsertLayers(r *run, t *trace.Trace, e2e time.Duration) {
	ph := phaseSums(t)
	walAppend, barrier := ph[trace.PhaseWALAppend], ph[trace.PhaseWALBarrier]
	alpha := ph[trace.PhasePublishWait] + ph[trace.PhaseApply] + ph[trace.PhasePublish] - walAppend
	r.layer("adb.insert_batch_ms", ms(alpha))
	r.layer("wal.append_ms", ms(walAppend))
	r.layer("wal.barrier_ms", ms(barrier))
	r.layer("insert.unattributed_ms", ms(e2e-alpha-walAppend-barrier))
}

// recordCacheLayers reports the selectivity cache's behaviour over
// some discoveries, from the change in its hit and miss counters.
func recordCacheLayers(r *run, hits, misses uint64, discoveries int) {
	if hits+misses > 0 {
		r.layer("adb.selcache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if discoveries > 0 {
		r.layer("adb.selcache_misses", float64(misses)/float64(discoveries))
	}
}

// recordBuildLayers reports the offline phase's cost for one base
// database.
func recordBuildLayers(r *run, sys *squid.System, build time.Duration) {
	r.layer("adb.build_s", build.Seconds())
	r.layer("adb.precomputed_mb", float64(sys.Stats().PrecomputedSize)/(1<<20))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
