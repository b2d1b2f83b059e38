package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"deepsketch"
)

// The fixture: constants of the benchmark. A later change that edits one of
// them has changed the benchmark, not the system, and its numbers are not
// comparable with earlier ones.
const (
	fixtureTitles = 20000 // deepsketchd's default -titles
	fixtureDBSeed = 1     // deepsketchd's default -seed

	sketchName         = "bench"
	sketchSampleSize   = 1000 // the paper's default sample size
	sketchHiddenUnits  = 256  // the MSCN paper's width
	sketchTrainQueries = 600
	sketchEpochs       = 3
	sketchSeed         = 11
	refreshQueries     = 300

	// rounds is how often a run sets the system up from nothing and
	// measures it; a run reports the median of its rounds.
	rounds = 3
	// warmupSeconds of the workload's own traffic precede every timed
	// phase, so caches, pools and connections are in their steady state.
	warmupSeconds = 0.5
	// daemonCacheEntries is the capacity deepsketchd gives each sketch's
	// estimate cache (installVersion in cmd/deepsketchd).
	daemonCacheEntries = 1024
	// coldQueries is the size of the signature-distinct query set: eight
	// times the daemon's estimate cache, so cycling it never hits.
	coldQueries = 8 * daemonCacheEntries
	// templateVariants is how many year-templates http_template cycles.
	templateVariants = 32
	// verifyPerRound is how many of a round's responses are recomputed
	// in-process and compared.
	verifyPerRound = 256
)

// kind is the request loop a workload's connections run.
type kind int

const (
	kindEstimate kind = iota // POST /api/estimate
	kindTemplate             // POST /api/template
	kindFeedback             // POST /api/estimate, then POST .../actuals with its truth
	kindRefresh              // POST /api/estimate on one connection beside an operator refreshing the sketch
)

// workloadSpec is one of the benchmark's workloads.
type workloadSpec struct {
	name string
	why  string
	kind kind
	hot  bool // the JOB-light working set instead of the cold query set
	// feedbackDaemon runs deepsketchd with the observation WAL and without
	// the in-process exact executor behind drift sampling.
	feedbackDaemon bool
}

var workloads = []workloadSpec{
	{name: "http_hot", kind: kindEstimate, hot: true,
		why: "a few hundred JOB-light queries cycled: ~100% estimate-cache hits, so handler, parser, JSON and the truth/HyPer/PostgreSQL overlays do the work and the model none"},
	{name: "http_cold", kind: kindEstimate,
		why: "8192 signature-distinct queries: ~0% cache hits, every request runs drift tap, clamp, coalescer, registry view, bitmaps, featurizer and one packed forward"},
	{name: "http_template", kind: kindTemplate,
		why: "year templates of ~137 instances, truth off: bypasses cache, coalescer and overlays, so the batched featurize+MSCN path is nearly all of the time"},
	{name: "http_feedback", kind: kindFeedback, feedbackDaemon: true,
		why: "estimate then POST its actual, WAL on: writes (parse, admit, resolve, WAL append, batched fsync) interleaved with the cold read path"},
	{name: "build_refresh", kind: kindRefresh,
		why: "cold estimates on one connection while an operator connection refreshes the sketch back to back: training and publishing beside serving"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// querySet is the input of one run, made from the seed alone.
type querySet struct {
	db *deepsketch.DB
	// queries and sql are positionally aligned; body[i] is sql[i] as a JSON
	// string, ready to be spliced into a request.
	queries []deepsketch.Query
	sql     []string
	body    [][]byte
	// joblight is the pinned 70-query evaluation workload every round ends
	// with; it does not depend on the seed.
	joblight *querySet
}

// newFixtureDB generates the database the daemon generates: the same
// generator, scale and seed, so exact counts agree.
func newFixtureDB() *deepsketch.DB {
	return deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: fixtureDBSeed, Titles: fixtureTitles})
}

func newQuerySet(d *deepsketch.DB, qs []deepsketch.Query) (*querySet, error) {
	s := &querySet{db: d, queries: qs, sql: make([]string, len(qs)), body: make([][]byte, len(qs))}
	for i, q := range qs {
		s.sql[i] = q.SQL(d)
		b, err := json.Marshal(s.sql[i])
		if err != nil {
			return nil, err
		}
		s.body[i] = b
	}
	return s, nil
}

// hotDraws is how many seeded draws of the 70-query JOB-light workload
// make up the hot working set: enough queries that one seed's set costs
// about what another's does, and still under half the cache.
const hotDraws = 7

// evalSeed pins the JOB-light draw every round is graded on, so that the
// q-error metrics measure the sketch and not the run's seed.
const evalSeed = 1

// hotSet is the hot working set: hotDraws draws of JOB-light, a few hundred
// distinct queries, well below the estimate cache's capacity.
func hotSet(d *deepsketch.DB, seed int64) (*querySet, error) {
	var qs []deepsketch.Query
	seen := map[string]bool{}
	for draw := int64(0); draw < hotDraws; draw++ {
		part, err := deepsketch.JOBLight(d, seed*hotDraws+draw)
		if err != nil {
			return nil, err
		}
		for _, q := range part {
			if sig := q.Signature(); !seen[sig] {
				seen[sig] = true
				qs = append(qs, q)
			}
		}
	}
	return newQuerySet(d, qs)
}

// evalSet is the pinned 70-query JOB-light evaluation workload.
func evalSet(d *deepsketch.DB) (*querySet, error) {
	qs, err := deepsketch.JOBLight(d, evalSeed)
	if err != nil {
		return nil, err
	}
	return newQuerySet(d, qs)
}

// coldSet is n signature-distinct queries from the training distribution
// (the generator de-duplicates by signature), cycled in order: any window
// shorter than n holds no repeat, so with n far above the cache capacity
// no request can hit.
func coldSet(d *deepsketch.DB, seed int64, n int) (*querySet, error) {
	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
		Seed: seed, Count: n, MaxJoins: 4, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		return nil, err
	}
	if len(qs) != n {
		return nil, fmt.Errorf("generated %d distinct queries, want %d", len(qs), n)
	}
	return newQuerySet(d, qs)
}

// templateSet is templateVariants placeholder statements: the keyword
// popularity-over-years template with the keyword drawn from the seed. The
// placeholder column is the same in all, so every request expands to the
// same number of instances (the distinct years in the sketch's sample).
func templateSet(d *deepsketch.DB, seed int64) (*querySet, error) {
	keywords := d.Table("keyword").NumRows()
	rng := rand.New(rand.NewSource(seed))
	s := &querySet{db: d}
	for _, k := range rng.Perm(keywords)[:templateVariants] {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND mk.keyword_id=%d AND t.production_year=?", k+1)
		if _, err := deepsketch.ParseTemplateSQL(d, sql); err != nil {
			return nil, fmt.Errorf("template %q: %w", sql, err)
		}
		b, err := json.Marshal(sql)
		if err != nil {
			return nil, err
		}
		s.sql = append(s.sql, sql)
		s.body = append(s.body, b)
	}
	return s, nil
}

// newWorkloadQueries makes a workload's inputs from the seed.
func newWorkloadQueries(w workloadSpec, seed int64) (*querySet, error) {
	d := newFixtureDB()
	jl, err := evalSet(d)
	if err != nil {
		return nil, err
	}
	var s *querySet
	switch {
	case w.kind == kindTemplate:
		s, err = templateSet(d, seed)
	case w.hot:
		s, err = hotSet(d, seed)
	default:
		s, err = coldSet(d, seed, coldQueries)
	}
	if err != nil {
		return nil, err
	}
	s.joblight = jl
	return s, nil
}
