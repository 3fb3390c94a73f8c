package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// tally pools what the measured deployments of one run saw.
type tally struct {
	cpus         map[string][]int
	rootProcs    int
	setupSeconds []float64
	deployments  int
	ticks        int

	// per holds each measured deployment's figures.
	per []deployStats
	// Root counter deltas over the measured windows.
	counters   map[string]float64
	queueDepth int64
	// Peak RSS of each measured root process.
	rssKB []float64
	// Each deployment's subscribe p50 and p99 in milliseconds, where it
	// had subscribe samples, and the samples' total count.
	subscribeP50, subscribeP99 []float64
	subscribeSamples           uint64

	window, fleetCPU time.Duration
	tickLate         []float64

	gate                     gate
	irrelevant, received     int
	reconnects, gapRefreshes int
	churnEvents              int

	// Traced runs only: per-cycle stage times in milliseconds.
	plan, publish, encode, write []float64
	ingest, egress               []float64
	fullPlans, incrementalPlans  int
	writesPending, ledgerMissing int
	relayWritten, relayFlushes   uint64
	spans                        []span
}

// deployStats is one measured deployment's figures.
type deployStats struct {
	h *hists
	// Frames of the measured cycles, and the sum over those cycles of
	// tick due → the cycle's last frame handled.
	frames       uint64
	drainSeconds float64
	// Root CPU time over the measured window.
	rootCPUNanos int64
}

// medianOf is the median over deployments of f, skipping those where f
// is NaN (no samples).
func (t *tally) medianOf(f func(deployStats) float64) float64 {
	var vs []float64
	for _, ds := range t.per {
		if v := f(ds); !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// quantileMs is h's q-quantile in milliseconds, NaN when h is empty.
func quantileMs(h *hist, q float64) float64 {
	if h.count() == 0 {
		return math.NaN()
	}
	return ms(h.quantile(q))
}

// pooled merges the deployments' histograms.
func (t *tally) pooled() *hists {
	p := &hists{}
	for _, ds := range t.per {
		p.deliver.merge(&ds.h.deliver)
		p.queue.merge(&ds.h.queue)
		p.publish.merge(&ds.h.publish)
		p.recv.merge(&ds.h.recv)
		p.extract.merge(&ds.h.extract)
	}
	return p
}

func (t *tally) frames() uint64 {
	var n uint64
	for _, ds := range t.per {
		n += ds.frames
	}
	return n
}

// add folds one deployment's gate into g.
func (g *gate) add(o gate) {
	g.expected += o.expected
	g.handled += o.handled
	g.lost += o.lost
	g.answers += o.answers
	g.wrongAnswers += o.wrongAnswers
	g.sessions += o.sessions
	for _, p := range o.problems {
		g.problem("%s", p)
	}
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func ms(ns float64) float64 { return ns / 1e6 }

// report turns the tally into the result line and the run record.
func (t *tally) report(o options, sp spec, traced bool) (result, error) {
	if len(t.per) == 0 {
		return result{}, fmt.Errorf("no deployment was measured")
	}
	busy := t.fleetCPU.Seconds() / (t.window.Seconds() * float64(fleetProcs()))
	g := t.gate
	h := t.pooled()
	e2e := map[string]metric{
		"setup_s":               {median(t.setupSeconds), "s"},
		"deliver_p50_ms":        {t.medianOf(func(ds deployStats) float64 { return quantileMs(&ds.h.deliver, 0.5) }), "ms"},
		"deliver_p99_ms":        {t.medianOf(func(ds deployStats) float64 { return quantileMs(&ds.h.deliver, 0.99) }), "ms"},
		"drain_frames_per_s":    {t.medianOf(func(ds deployStats) float64 { return float64(ds.frames) / ds.drainSeconds }), "1/s"},
		"subscribe_p50_ms":      {median(t.subscribeP50), "ms"},
		"subscribe_p99_ms":      {median(t.subscribeP99), "ms"},
		"wire_mb_per_cycle":     {t.counters["bytes"] / float64(t.ticks) / 1e6, "MB"},
		"root_cpu_ns_per_frame": {t.medianOf(func(ds deployStats) float64 { return float64(ds.rootCPUNanos) / float64(ds.frames) }), "ns"},
		"root_rss_mb":           {median(t.rssKB) / 1024, "MB"},
	}
	info := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "smoke": o.smoke, "traced": traced,
		"spec":                 sp,
		"deployments":          t.deployments,
		"ticks":                t.ticks,
		"nproc":                nproc(),
		"cpus":                 t.cpus,
		"gomaxprocs":           map[string]int{"root": t.rootProcs, "fleet": runtime.GOMAXPROCS(0)},
		"go":                   runtime.Version(),
		"commit":               o.commit,
		"setup_s":              t.setupSeconds,
		"deliver_samples":      h.deliver.count(),
		"subscribe_samples":    t.subscribeSamples,
		"subscribe_p99_ms":     t.subscribeP99,
		"frames":               t.frames(),
		"churn_events":         t.churnEvents,
		"sessions_checked":     g.sessions,
		"answers_checked":      g.answers,
		"reconnects":           t.reconnects,
		"gap_refreshes":        t.gapRefreshes,
		"full_publishes":       t.counters["publishes"] - t.counters["deltaPublishes"],
		"fleet_busy":           busy,
		"harness_bound":        busy >= 0.9,
		"lost_share":           float64(g.lost) / float64(max(1, g.expected)),
		"irrelevant_share":     share(t.irrelevant, t.received),
		"problems":             g.problems,
		"write_stages_pending": t.writesPending,
	}
	metrics := e2e
	if traced {
		if t.ledgerMissing > 0 {
			return result{}, fmt.Errorf("root ledger lost %d measured cycles", t.ledgerMissing)
		}
		metrics = t.perLayer(h, busy)
		info["end_to_end"] = e2e
		path, err := t.dumpSpans(o)
		if err != nil {
			return result{}, err
		}
		info["spans"] = path
	}
	sum := summary{
		Correct:   g.ok(),
		Attempted: g.expected + uint64(g.answers),
		Failed:    g.lost + uint64(g.wrongAnswers),
		Metrics:   metrics,
	}
	return result{summary: sum, info: info}, nil
}

// perLayer computes the traced run's per-layer metrics: per-cycle
// values from the root's cycle ledger and counters, the relay poller
// and the cycle tables; per-frame ones from the traced histograms. The
// four segment medians sum, within quantile error, to the traced
// deliver_p50_ms, and traced minus untraced deliver_p50_ms is the
// tracing overhead.
func (t *tally) perLayer(h *hists, busy float64) map[string]metric {
	n := float64(t.ticks)
	c := t.counters
	q := exactQuantile
	relayPerFlush := 0.0
	if t.relayFlushes > 0 {
		relayPerFlush = float64(t.relayWritten) / float64(t.relayFlushes)
	}
	return map[string]metric{
		"server.plan_ms.p50":              {q(t.plan, 0.5), "ms"},
		"server.plan_ms.p99":              {q(t.plan, 0.99), "ms"},
		"server.full_plans":               {float64(t.fullPlans), "count"},
		"server.incremental_plans":        {float64(t.incrementalPlans), "count"},
		"server.publish_ms.p50":           {q(t.publish, 0.5), "ms"},
		"relation.delta_tuples_per_cycle": {c["deltaTuples"] / n, "count"},
		"wire.encode_ms.p50":              {q(t.encode, 0.5), "ms"},
		"wire.encodes_per_cycle":          {c["encodes"] / n, "count"},
		"wire.bytes_per_frame":            {c["bytes"] / max(1, c["framesWritten"]), "B"},
		"multicast.deliveries_per_cycle":  {c["deliveries"] / n, "count"},
		"multicast.queue_depth.max":       {float64(t.queueDepth), "count"},
		"multicast.dropped":               {c["dropped"], "count"},
		"multicast.evicted":               {c["evictions"], "count"},
		"daemon.write_ms.p50":             {q(t.write, 0.5), "ms"},
		"daemon.write_ms.p99":             {q(t.write, 0.99), "ms"},
		"daemon.frames_per_flush":         {c["framesWritten"] / max(1, c["flushes"]), "count"},
		"relay.ingest_ms.p50":             {q(t.ingest, 0.5), "ms"},
		"relay.ingest_ms.p99":             {q(t.ingest, 0.99), "ms"},
		"relay.egress_ms.p50":             {q(t.egress, 0.5), "ms"},
		"relay.egress_ms.p99":             {q(t.egress, 0.99), "ms"},
		"relay.frames_per_flush":          {relayPerFlush, "count"},
		"netclient.recv_ms.p50":           {ms(h.recv.quantile(0.5)), "ms"},
		"netclient.recv_ms.p99":           {ms(h.recv.quantile(0.99)), "ms"},
		"client.extract_us.p50":           {h.extract.quantile(0.5) / 1e3, "us"},
		"client.extract_us.p99":           {h.extract.quantile(0.99) / 1e3, "us"},
		"client.irrelevant_share":         {share(t.irrelevant, t.received), "share"},
		"loadgen.tick_late_ms.p99":        {q(t.tickLate, 0.99), "ms"},
		"loadgen.fleet_cpu_ns_per_frame":  {float64(t.fleetCPU.Nanoseconds()) / float64(t.frames()), "ns"},
		"loadgen.fleet_busy_share":        {busy, "share"},
		"segment.queue_ms.p50":            {ms(h.queue.quantile(0.5)), "ms"},
		"segment.publish_ms.p50":          {ms(h.publish.quantile(0.5)), "ms"},
		"segment.sum_p50_ms":              {ms(h.queue.quantile(0.5) + h.publish.quantile(0.5) + h.recv.quantile(0.5) + h.extract.quantile(0.5)), "ms"},
		"traced.deliver_p50_ms":           {ms(h.deliver.quantile(0.5)), "ms"},
	}
}

// span is one measured cycle's timeline, in Unix nanoseconds on the
// machine's shared clock; zero where a stage does not apply.
type span struct {
	Deployment  int    `json:"deployment"`
	Cycle       int    `json:"cycle"`
	Due         int64  `json:"due"`
	Sent        int64  `json:"sent"`
	Start       int64  `json:"runCycleStart"`
	PlanEnd     int64  `json:"planEnd"`
	Mode        string `json:"mode"`
	EncodeNanos int64  `json:"encodeNanos"`
	FanoutNanos int64  `json:"fanoutNanos"`
	End         int64  `json:"runCycleEnd"`
	WriteDone   int64  `json:"rootWriteDone"`
	IngestDone  int64  `json:"relayIngestDone"`
	EgressDone  int64  `json:"relayEgressDone"`
	Frames      uint64 `json:"frames"`
	LastHandled int64  `json:"lastHandled"`
}

// dumpSpans writes the traced run's per-cycle spans and returns the
// file's path.
func (t *tally) dumpSpans(o options) (string, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	buf, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
