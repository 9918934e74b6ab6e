package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"squid"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/experiments"
	"squid/internal/metrics"
	"squid/internal/relation"
	"squid/internal/snapshot"
)

// exampleSizes are the |E| values of the paper's accuracy and
// scalability figures.
var exampleSizes = []int{5, 10, 15, 20, 25, 30}

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 3

// rngFor derives a deterministic RNG for one purpose of one seed.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return rand.New(rand.NewSource(v))
}

// intent is one of the paper's benchmark intents at one |E|: the
// examples are sampled from its ground-truth output.
type intent struct {
	dataset, id string
	size        int
	truth       []string
}

func (in intent) String() string { return fmt.Sprintf("%s/%s/|E|=%d", in.dataset, in.id, in.size) }

// sample draws the intent's examples.
func (in intent) sample(rng *rand.Rand) []string { return metrics.Sample(rng, in.truth, in.size) }

// paperIntents executes every benchmark's ground-truth plan over the
// original base database and returns one intent per benchmark and
// |E| the truth can supply, as the paper's Fig 10 does.
func paperIntents(dataset string, db *relation.Database, benches []benchqueries.Benchmark) ([]intent, error) {
	var out []intent
	for _, b := range benches {
		truth, err := benchqueries.GroundTruth(db, b)
		if err != nil {
			return nil, err
		}
		truth = dedup(truth)
		for _, n := range exampleSizes {
			if n <= len(truth) {
				out = append(out, intent{dataset, b.ID, n, truth})
			}
		}
	}
	return out, nil
}

func dedup(sorted []string) []string {
	out := sorted[:0:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// paperScale returns the IMDb/DBLP configuration for the run's scale.
func paperScale(cfg config) experiments.Scale {
	if cfg.tiny {
		return experiments.TestScale()
	}
	return experiments.FullScale()
}

// timedBuild runs the offline phase over db and returns the system and
// its wall time.
func timedBuild(db *relation.Database) (*squid.System, time.Duration, error) {
	start := time.Now()
	sys, err := squid.Build(db, squid.DefaultBuildConfig())
	return sys, time.Since(start), err
}

// settle collects the garbage of the previous set-up repetition, so
// each repetition and the measured section start from the same heap.
func settle() { runtime.GC() }

// genConfig returns the retail generator's configuration for the run's
// scale: gen1m (about 1M rows) at paper scale.
func genConfig(cfg config) datagen.GenConfig {
	if cfg.tiny {
		return datagen.GenConfig{
			Seed: 20190625, NumCustomers: 1200, NumProducts: 400, NumFacts: 12000, Skew: 1.05,
			NumRegions: 6, NumSegments: 4, NumBrands: 12, NumTags: 8, NumChannels: 6,
			TagsPerProduct: 2, NumGroups: 3, GroupSize: 16,
		}
	}
	c, _ := datagen.GenScaleConfig("gen1m")
	return c
}

// genData is the retail database with its planted loyalist groups as
// customer names.
type genData struct {
	db     *relation.Database
	groups [][]string
}

// loadGen returns the generated retail database. Generating gen1m takes
// far longer than a run measures, so the database is cached under dir
// in the snapshot package's database encoding. The cache file is named
// by a hash of every Go source file of the module outside this
// directory, of go.mod, of the Go version and of the generator
// configuration: any change to the generator (or to what it depends on)
// names a different file, so a stale copy is never read. Files of other
// keys are kept, so runs that alternate between two versions of the
// module each find their own copy.
func loadGen(cfg config) (*genData, error) {
	gc := genConfig(cfg)
	key, err := sourceKey(fmt.Sprintf("%+v", gc))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.dir, "gen-"+key+".db")
	if gd, err := readGen(path); err == nil {
		return gd, nil
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	start := time.Now()
	g := datagen.GenerateGen(gc)
	fmt.Fprintf(os.Stderr, "squidbench: generated %d rows in %v; caching in %s\n", g.DB.TotalRows(), time.Since(start).Round(time.Millisecond), path)
	gd := &genData{db: g.DB}
	names := idNames(g.DB.Relation("customer"))
	for _, grp := range g.Groups {
		var ns []string
		for _, id := range grp {
			ns = append(ns, names[id])
		}
		gd.groups = append(gd.groups, ns)
	}
	if err := writeGen(cfg.dir, path, gd); err != nil {
		return nil, err
	}
	// Reload from the cache, so every run (the first included) builds
	// from the same decoded database.
	return readGen(path)
}

// idNames maps an entity relation's id column to its name column.
func idNames(rel *relation.Relation) map[int64]string {
	ids, names := rel.Column("id"), rel.Column("name")
	out := make(map[int64]string, rel.NumRows())
	for i := 0; i < rel.NumRows(); i++ {
		out[ids.Get(i).Int()] = names.Get(i).Str()
	}
	return out
}

// sourceKey hashes the module's Go sources outside this directory,
// go.mod, the Go version and extra.
func sourceKey(extra string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", runtime.Version(), extra)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "squidbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !(strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")) && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path) // path is under root
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// moduleRoot finds the directory holding go.mod, from the working
// directory upwards.
func moduleRoot() (string, error) {
	dir, err := filepath.Abs(".")
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// writeGen writes gd to a temporary file in dir, syncs it, and renames
// it to path, so a crash never leaves a torn file under a valid key.
func writeGen(dir, path string, gd *genData) error {
	tmp, err := os.CreateTemp(dir, "gen-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := snapshot.NewWriter(tmp)
	w.Header()
	snapshot.WriteDatabase(w, gd.db)
	w.Uvarint(uint64(len(gd.groups)))
	for _, g := range gd.groups {
		w.Uvarint(uint64(len(g)))
		for _, n := range g {
			w.String(n)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func readGen(path string) (*genData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := snapshot.NewReader(bufio.NewReaderSize(f, 1<<20))
	r.Header()
	gd := &genData{db: snapshot.ReadDatabase(r)}
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		m := r.Len()
		var g []string
		for j := 0; j < m && r.Err() == nil; j++ {
			g = append(g, r.String())
		}
		gd.groups = append(gd.groups, g)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return gd, nil
}
