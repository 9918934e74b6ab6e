package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"squid"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/metrics"
	"squid/internal/relation"
	"squid/internal/trace"
	"squid/internal/wal"
)

// Ingest operation counts: the writer makes batchesPerSecond calls per
// measured second, and the reader makes readsPerBatch discoveries while
// each batch is in flight (waiting for the batch's acknowledgement
// before the next group). Every run of a given length therefore
// attempts exactly the same operations, and reads are spread over the
// whole write stream whichever client is faster.
const (
	batchesPerSecond = 20
	readsPerBatch    = 16
	batchRows        = 64
	// extraSetups more set-ups are timed after the sessions, so setup_s
	// is a median of setupReps+extraSetups: one takes about 0.15 s, and
	// the median of three moved by a fifth between runs.
	extraSetups = 4
)

// batchSeed fixes the insert batches. They are the same for every
// --seed, so the state the verify operations inspect, and with it the
// number of them the known maintenance fault fails, is the same in
// every run; the seed drives the reader's examples.
const batchSeed = 1906

// ingest runs the write path next to reads: IMDb at the paper's scale
// with a write-ahead log (fsync policy always), one writer making
// InsertBatch calls of castinfo credits and one reader making
// discoveries over the IMDb intents, closed-loop on both sides. A run
// is setupReps sessions, each from a fresh build and an empty log; the
// latency samples of all sessions are pooled, so a burst of load on the
// machine during one session moves the figures less.
func ingest(r *run) error {
	sc := paperScale(r.cfg)
	g := datagen.GenerateIMDb(sc.IMDb)
	intents, err := paperIntents("imdb", g.DB, benchqueries.IMDbBenchmarks(g))
	if err != nil {
		return err
	}
	perSession := int(math.Ceil(batchesPerSecond * r.cfg.seconds / setupReps))
	batches := makeBatches(g, rand.New(rand.NewSource(batchSeed)), perSession)
	// The verify operations use the same examples whatever the seed.
	vrng := rand.New(rand.NewSource(20190625))
	verify := make([][]string, len(intents))
	for i, in := range intents {
		verify[i] = in.sample(vrng)
	}
	rng := rngFor(r.cfg.seed, "ingest/reads")
	var all sessionResult
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Whole rounds over the intents, so every run reads the same mix.
		var reads []read
		for len(reads) < len(batches)*readsPerBatch {
			for _, k := range rng.Perm(len(intents)) {
				reads = append(reads, read{intents[k], intents[k].sample(rng)})
			}
		}
		settle()
		res, err := ingestSession(r, sc.IMDb, batches, reads[:len(batches)*readsPerBatch], verify)
		if err != nil {
			return err
		}
		setups = append(setups, res.setup.Seconds())
		all.insertMS = append(all.insertMS, res.insertMS...)
		all.readMS = append(all.readMS, res.readMS...)
		all.f1s = append(all.f1s, res.f1s...)
		all.rows += res.rows
		all.writerTime += res.writerTime
		all.peakRSS = math.Max(all.peakRSS, res.peakRSS)
	}
	for i := 0; i < extraSetups; i++ {
		settle()
		d, err := timeIngestSetup(r.cfg.dir, sc.IMDb)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	r.metric("setup_s", "s", quantile(setups, 0.5))
	r.metric("peak_rss_mb", "MB", all.peakRSS)
	r.median("discover_p50_ms", all.readMS)
	r.noteTail("discover", all.readMS)
	// The operation is the writer's acknowledged InsertBatch, fsync
	// included.
	r.opLatency(all.insertMS)
	if all.rows > 0 {
		r.note("insert_rows_per_s", float64(all.rows)/all.writerTime.Seconds(), len(all.insertMS))
	}
	// The reader's accuracy against each intent's ground truth over the
	// seed database, while the writer adds credits underneath it.
	if len(all.f1s) > 0 {
		r.metric("f1_mean", "ratio", metrics.Mean(all.f1s))
	}
	return nil
}

// sessionResult is what one ingest session measured.
type sessionResult struct {
	setup, writerTime time.Duration
	insertMS, readMS  []float64
	f1s               []float64
	rows              int
	peakRSS           float64
}

// ingestSession builds the seed database with an empty log, runs the
// writer and the reader, and checks the outcome.
// read is one reader discovery: examples of one intent.
type read struct {
	in       intent
	examples []string
}

func ingestSession(r *run, cfg datagen.IMDbConfig, batches [][]squid.InsertOp, reads []read, verify [][]string) (*sessionResult, error) {
	var res sessionResult
	dir, err := os.MkdirTemp(r.cfg.dir, "ingest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "squid.wal")
	sys, build, setup, err := openIngest(cfg, walPath)
	if err != nil {
		return nil, err
	}
	res.setup = setup
	walOpen := true
	defer func() {
		if walOpen {
			sys.WAL().Close() // error path: the session is abandoned
		}
	}()
	if r.cfg.traced {
		recordBuildLayers(r, sys, build)
	}
	before := rowCounts(sys.AlphaDB().Snapshot().DB)

	var (
		wg        sync.WaitGroup
		acked     [][]squid.InsertOp
		startLine = make(chan struct{})
		// acks carries one token per finished batch; sized so the
		// writer never waits for the reader.
		acks = make(chan struct{}, len(batches))
	)
	rss := sampleRSS()
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-startLine
		start := time.Now()
		for _, b := range batches {
			var err error
			d, t := r.call("insert", trace.PhaseInsert, r.nextOp(), func(ctx context.Context) { err = sys.InsertBatchContext(ctx, b) })
			acks <- struct{}{}
			r.attempt("insert", err)
			if err != nil {
				continue
			}
			res.insertMS = append(res.insertMS, ms(d))
			res.rows += len(b)
			acked = append(acked, b)
			if t != nil {
				recordInsertLayers(r, t, d)
			}
		}
		res.writerTime = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		<-startLine
		for i, rd := range reads {
			if i > 0 && i%readsPerBatch == 0 {
				<-acks
			}
			d, dDisc, err := readOnce(r, sys, rd.examples)
			if err == nil {
				err = discoverCheck(rd.examples, d.Output)
			}
			r.attempt("discover", wrapIntent(rd.in, err))
			if err == nil {
				res.readMS = append(res.readMS, ms(dDisc))
				res.f1s = append(res.f1s, metrics.Compare(d.Output, rd.in.truth).FScore)
			}
		}
	}()
	close(startLine)
	wg.Wait()
	res.peakRSS = rss.stop()
	if r.cfg.traced && res.rows > 0 {
		retired, retained := sys.EpochGCMetrics()
		r.layer("adb.epoch_retired", float64(retired))
		r.layer("adb.retained_mb", float64(retained)/(1<<20))
		r.layer("wal.bytes_per_row", float64(sys.WAL().Metrics().Bytes)/float64(res.rows))
		resident, _ := sys.AlphaDB().SelectivityCache().RowSetBytes()
		r.layer("adb.selcache_rowset_kb", float64(resident)/1024)
	}

	// Row counts: the initial counts plus the acknowledged rows.
	want := before
	for _, b := range acked {
		for _, op := range b {
			want[op.Rel]++
		}
	}
	r.check("row counts", sameCounts(rowCounts(sys.AlphaDB().Snapshot().DB), want))

	// Recovery: the log replayed into a fresh build of the seed database
	// must reproduce the counts and the live system's discoveries.
	walOpen = false
	if err := sys.WAL().Close(); err != nil {
		return nil, err
	}
	recovered, _, err := timedBuild(datagen.GenerateIMDb(cfg).DB)
	if err != nil {
		return nil, err
	}
	info, err := recovered.RecoverWAL(walPath, walOpts)
	r.check("wal replay", err)
	if err == nil {
		defer recovered.WAL().Close() // read-only from here on
		if info.Replayed != len(acked) {
			r.check("wal replay", fmt.Errorf("replayed %d records, %d batches were acknowledged", info.Replayed, len(acked)))
		}
		r.check("wal replay row counts", sameCounts(rowCounts(recovered.AlphaDB().Snapshot().DB), want))
		for _, examples := range verify {
			r.check("wal replay discovery", sameDiscovery(sys, recovered, examples))
		}
	}

	// Known fault: incremental maintenance against a rebuild from the
	// same base rows. adb's insertDerivedDelta bumps a derived count once
	// per fact row, while adb.Build counts each (entity, via) pair once,
	// so a credit repeating a pair under another role inflates the
	// maintained counts. These operations fail until that is fixed.
	base := datagen.GenerateIMDb(cfg).DB
	for _, b := range acked {
		for _, op := range b {
			if err := base.Relation(op.Rel).Append(op.Vals...); err != nil {
				return nil, fmt.Errorf("rebuild base rows: %w", err)
			}
		}
	}
	rebuilt, _, err := timedBuild(base)
	if err != nil {
		return nil, err
	}
	r.knownFault("verify")
	for _, examples := range verify {
		r.attempt("verify", sameDiscovery(sys, rebuilt, examples))
	}
	return &res, nil
}

// walOpts is the ingest log's policy: fsync before every acknowledgement.
var walOpts = wal.Options{Policy: wal.PolicyAlways}

// openIngest builds the seed database and attaches an empty log at
// walPath. It returns the build time and the set-up time (the build plus
// the log's opening); generating the data is not timed.
func openIngest(cfg datagen.IMDbConfig, walPath string) (*squid.System, time.Duration, time.Duration, error) {
	db := datagen.GenerateIMDb(cfg).DB
	start := time.Now()
	sys, build, err := timedBuild(db)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := sys.RecoverWAL(walPath, walOpts); err != nil {
		return nil, 0, 0, err
	}
	return sys, build, time.Since(start), nil
}

// timeIngestSetup sets up once more, only to time it, and closes the
// log again.
func timeIngestSetup(dir string, cfg datagen.IMDbConfig) (time.Duration, error) {
	tmp, err := os.MkdirTemp(dir, "ingest-setup-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	sys, _, setup, err := openIngest(cfg, filepath.Join(tmp, "squid.wal"))
	if err != nil {
		return 0, err
	}
	return setup, sys.WAL().Close()
}

// readOnce makes one reader discovery; in a traced run it also reports
// the discovery's per-layer values.
func readOnce(r *run, sys *squid.System, examples []string) (*squid.Discovery, time.Duration, error) {
	var h0, m0 uint64
	if r.cfg.traced {
		h0, m0, _ = sys.CacheMetrics()
	}
	var d *squid.Discovery
	var err error
	dDisc, t := r.call("discover", trace.PhaseDiscover, r.nextOp(), func(ctx context.Context) { d, err = sys.DiscoverContext(ctx, examples) })
	if err == nil && t != nil {
		h1, m1, _ := sys.CacheMetrics()
		recordCacheLayers(r, h1-h0, m1-m0, 1)
		recordDiscoverLayers(r, t, dDisc, len(d.Output))
	}
	return d, dDisc, err
}

// sameDiscovery compares one discovery on two systems: the Explain
// rendering (base query, SQL, every candidate's Algorithm 1 numbers)
// and the output rows.
func sameDiscovery(a, b *squid.System, examples []string) error {
	da, err := a.Discover(examples)
	if err != nil {
		return err
	}
	db, err := b.Discover(examples)
	if err != nil {
		return err
	}
	if d := firstDiff(da.Explain(), db.Explain()); d != "" {
		return fmt.Errorf("explain differs at %s", d)
	}
	if !sameRows(da.Output, db.Output) {
		return fmt.Errorf("output %d vs %d rows", len(da.Output), len(db.Output))
	}
	return nil
}

func rowCounts(db *relation.Database) map[string]int {
	out := make(map[string]int)
	for _, name := range db.RelationNames() {
		out[name] = db.Relation(name).NumRows()
	}
	return out
}

func sameCounts(got, want map[string]int) error {
	for name, n := range want {
		if got[name] != n {
			return fmt.Errorf("%s has %d rows, want %d", name, got[name], n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d relations, want %d", len(got), len(want))
	}
	return nil
}

// makeBatches prepares n InsertBatch calls of batchRows rows each over
// the seed database g. Every 8th batch starts with a new person. Every
// 8th credit repeats an existing (person, movie) pair under another
// role; every other credit pairs an existing person and movie that
// share no credit yet.
func makeBatches(g *datagen.IMDb, rng *rand.Rand, n int) [][]squid.InsertOp {
	ci := g.DB.Relation("castinfo")
	persons := g.DB.Relation("person").NumRows()
	movies := g.DB.Relation("movie").NumRows()
	roles := g.DB.Relation("role").NumRows()
	pcol, mcol, rcol := ci.Column("person_id"), ci.Column("movie_id"), ci.Column("role_id")
	type pair struct{ p, m int64 }
	taken := make(map[pair]bool, ci.NumRows())
	for i := 0; i < ci.NumRows(); i++ {
		taken[pair{pcol.Get(i).Int(), mcol.Get(i).Int()}] = true
	}
	credit := func(p, m, role int64) squid.InsertOp {
		return squid.InsertOp{Rel: "castinfo", Vals: []squid.Value{squid.IntVal(p), squid.IntVal(m), squid.IntVal(role)}}
	}
	out := make([][]squid.InsertOp, n)
	for i := range out {
		var b []squid.InsertOp
		if i%8 == 0 {
			id := int64(persons + i/8)
			b = append(b, squid.InsertOp{Rel: "person", Vals: []squid.Value{
				squid.IntVal(id),
				squid.StringVal(fmt.Sprintf("Ingested Person %d", id)),
				squid.StringVal([]string{"Male", "Female"}[rng.Intn(2)]),
				squid.IntVal(int64(1930 + rng.Intn(75))),
				squid.IntVal(0),
			}})
		}
		for j := 0; len(b) < batchRows; j++ {
			if j%8 == 7 {
				row := rng.Intn(ci.NumRows())
				role := (rcol.Get(row).Int() + 1 + int64(rng.Intn(roles-1))) % int64(roles)
				b = append(b, credit(pcol.Get(row).Int(), mcol.Get(row).Int(), role))
			} else {
				var pr pair
				for {
					pr = pair{int64(rng.Intn(persons)), int64(rng.Intn(movies))}
					if !taken[pr] {
						break
					}
				}
				taken[pr] = true
				b = append(b, credit(pr.p, pr.m, int64(rng.Intn(roles))))
			}
		}
		out[i] = b
	}
	return out
}
