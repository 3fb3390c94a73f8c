package main

import (
	"fmt"
	"math/rand"
	"time"

	"qsub/internal/chanalloc"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

// spec is one workload at one size. Everything a run does is derived
// from a spec and the seed, in both the fleet process and the root
// process, so the two agree on the relation without shipping it.
type spec struct {
	Name string `json:"name"`
	// Sessions is the number of netclient sessions subscribed at set-up;
	// QueriesPerSession is how many range queries each one registers.
	Sessions          int `json:"sessions"`
	QueriesPerSession int `json:"queriesPerSession"`
	Channels          int `json:"channels"`
	// Relays, when positive, puts that many relays between the root and
	// the sessions; sessions dial them round-robin.
	Relays int `json:"relays"`
	// Period is the fixed open-loop tick period.
	Period time.Duration `json:"period"`
	// Geo selects the §9 workload: a 1000×1000 relation of Tuples
	// uniform points, clustered range queries, InsertsPerTick seeded
	// inserts per tick and ChurnPerSecond churn events per second, each
	// one join and one leave. Otherwise every session owns one disjoint unit cell
	// holding one tuple, and nothing is inserted, so every tick
	// publishes one header-only delta frame per query.
	Geo            bool    `json:"geo"`
	Tuples         int     `json:"tuples"`
	InsertsPerTick int     `json:"insertsPerTick"`
	ChurnPerSecond float64 `json:"churnPerSecond"`
	// Setups is how many times a run sets the deployment up; setup_s is
	// the median. The last Measured set-ups are measured.
	Setups   int `json:"setups"`
	Measured int `json:"measured"`
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fanout-direct", "fanout-relay", "churn-geo"}

// newSpec returns the named workload at full size, or at the
// seconds-long smoke size the benchmark's own test runs.
func newSpec(name string, smoke bool) (spec, error) {
	var s spec
	switch name {
	case "fanout-direct", "fanout-relay":
		// 2000 sessions on 16 channels: 125 sessions per channel, each
		// receiving 125 frames per tick, so a tick is 250k frames.
		// Subscribe latency and set-up time are one sample per set-up,
		// so a run sets up three times as often as it measures.
		s = spec{Sessions: 2000, QueriesPerSession: 1, Channels: 16, Period: 500 * time.Millisecond, Setups: 15, Measured: 5}
		if name == "fanout-relay" {
			s.Relays = 2
			s.Period = 600 * time.Millisecond
		}
		if smoke {
			s.Sessions, s.Channels, s.Period, s.Setups, s.Measured = 64, 4, 100*time.Millisecond, 2, 2
		}
	case "churn-geo":
		// 1000 sessions × 2 queries on 8 channels over 20k tuples. The
		// churn rate gives over 1000 joins in a 20s run.
		s = spec{Sessions: 1000, QueriesPerSession: 2, Channels: 8, Period: 2 * time.Second,
			Geo: true, Tuples: 20000, InsertsPerTick: 40, ChurnPerSecond: 65, Setups: 3, Measured: 1}
		if smoke {
			s.Sessions, s.Tuples, s.ChurnPerSecond, s.Period, s.Setups = 60, 2000, 40, 100*time.Millisecond, 2
		}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s.Name = name
	return s, nil
}

// serverConfig is the planner configuration of the root daemon.
func (s spec) serverConfig() server.Config {
	if s.Geo {
		// qsubd's default cost model. Allocating 1000 clients to 8
		// channels takes the unsharded planner minutes, so the root
		// plans with the sharded pipeline.
		return server.Config{
			Model:     cost.Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000},
			Strategy:  chanalloc.BestOfBoth,
			Neighbors: 8,
			Seed:      1,
			Sharding:  shard.Config{Enabled: true, ShardBits: 4, Aggregate: true},
		}
	}
	// KM = K6 = 0: merging never pays, so the plan keeps one message
	// per query; sharding keeps the one-off bootstrap plan fast.
	return server.Config{
		Model:    cost.Model{KM: 0, KT: 1, KU: 1, K6: 0},
		Seed:     1,
		Sharding: shard.Config{Enabled: true, ShardBits: 8},
	}
}

// bounds is the relation's extent.
func (s spec) bounds() geom.Rect {
	if s.Geo {
		return workload.DefaultConfig().DB
	}
	return geom.R(0, 0, float64(s.Sessions), 1)
}

// tuplePayload is every tuple's payload. All tuples have the same size,
// so the client's irrelevant-byte share equals its irrelevant-tuple
// share.
var tuplePayload = []byte("object")

// newRelation builds the initial relation from the seed. The root and
// the fleet's mirror insert the same points in the same order, so they
// assign the same tuple ids.
func (s spec) newRelation(seed int64) (*relation.Relation, error) {
	if !s.Geo {
		rel, err := relation.New(s.bounds(), 64, 1)
		if err != nil {
			return nil, err
		}
		for i := 0; i < s.Sessions; i++ {
			rel.Insert(geom.Pt(float64(i)+0.5, 0.5), tuplePayload)
		}
		return rel, nil
	}
	rel, err := relation.New(s.bounds(), 25, 25)
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultConfig()
	cfg.Seed = seed*2 + 1
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range g.Points(s.Tuples) {
		rel.Insert(p, tuplePayload)
	}
	return rel, nil
}

// queryPoolSeed seeds churn-geo's query population (see inputs).
const queryPoolSeed = 1

// inputs is everything the fleet feeds the system during one measured
// window, generated up front from the seed.
type inputs struct {
	// initial holds each set-up session's queries.
	initial [][]query.Query
	// joiners holds the queries of the sessions that join, in join
	// order.
	joiners [][]query.Query
	// inserts holds each tick's inserted points.
	inserts [][]geom.Point
	// churn holds the churn events' offsets from the first tick's due
	// time, in order; at each one session joins and one leaves.
	churn []time.Duration
	// pick seeds the choice of which live session leaves.
	pick *rand.Rand
}

func (s spec) inputs(seed int64, ticks int) (inputs, error) {
	var in inputs
	window := time.Duration(ticks) * s.Period
	if !s.Geo {
		// The fanout shape has nothing to draw: every seed gives the same
		// sessions and an insert-free schedule.
		for i := 0; i < s.Sessions; i++ {
			x := float64(i)
			in.initial = append(in.initial, []query.Query{
				query.Range(query.ID(i+1), geom.R(x+0.05, 0.05, x+0.95, 0.95)),
			})
		}
		in.inserts = make([][]geom.Point, ticks)
		return in, nil
	}
	rng := rand.New(rand.NewSource(seed*2 + 3))
	in.pick = rand.New(rand.NewSource(seed*2 + 4))
	// Poisson churn: each event is one join and one leave, which keeps
	// the population at its set-up size. Churn stops two periods before
	// the last tick, so that every joiner is planned in by a tick of the
	// window rather than by the closing cycle.
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / s.ChurnPerSecond * float64(time.Second))
		if t >= window-2*s.Period {
			break
		}
		in.churn = append(in.churn, t)
	}
	joins := len(in.churn)
	// The query population is fixed: the clustered generator places
	// only ceil(1/SF) = 4 cluster origins, so drawing them per seed would
	// make merge structure, and with it every metric, swing from seed to
	// seed. The seed picks which queries the set-up sessions and the
	// joiners take, in which order, and everything else.
	cfg := workload.DefaultConfig()
	cfg.Seed = queryPoolSeed
	cfg.DupF = 0.1
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		return in, err
	}
	poolSessions := s.Sessions + int(2*s.ChurnPerSecond*window.Seconds()) + 100
	if s.Sessions+joins > poolSessions {
		return in, fmt.Errorf("%d joins exceed the query pool", joins)
	}
	pool := g.Queries(poolSessions * s.QueriesPerSession)
	// The generator puts its near-duplicates last; shuffle so set-up
	// sessions and joiners draw from the same mix.
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i := 0; i < s.Sessions+joins; i++ {
		qs := pool[i*s.QueriesPerSession : (i+1)*s.QueriesPerSession]
		if i < s.Sessions {
			in.initial = append(in.initial, qs)
		} else {
			in.joiners = append(in.joiners, qs)
		}
	}
	b := s.bounds()
	in.inserts = make([][]geom.Point, ticks)
	for k := range in.inserts {
		pts := make([]geom.Point, s.InsertsPerTick)
		for i := range pts {
			pts[i] = geom.Pt(b.MinX+rng.Float64()*(b.MaxX-b.MinX), b.MinY+rng.Float64()*(b.MaxY-b.MinY))
		}
		in.inserts[k] = pts
	}
	return in, nil
}
