package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qsub/internal/daemon"
	"qsub/internal/relay"
)

func (d *deployment) stats() (rootResp, error) {
	resp, err := d.root.call(rootReq{Op: "stats"}, time.Minute)
	if err == nil && resp.Err != "" {
		err = fmt.Errorf("root stats: %s", resp.Err)
	}
	return resp, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one open-loop window on d: ticks, inserts and churn fire
// on the seeded schedule whatever the system's state. One closing
// full-answer cycle then feeds the correctness gate. Everything
// measured is added to t.
func (d *deployment) measure(t *tally, seed int64, in inputs, ticks int) error {
	sp := d.sp
	mirror, err := sp.newRelation(seed)
	if err != nil {
		return err
	}
	d.cycle(1, time.Now().UnixNano(), true, rootReq{})
	if err := d.waitKnown(1, time.Minute); err != nil {
		return err
	}
	if err := d.waitReached(1, true, time.Minute); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	last := firstTick + ticks - 1
	start, err := d.stats()
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	t0 := time.Now().Add(20 * time.Millisecond)

	var sent atomic.Int32 // last tick sent
	var churnWG, leaveWG sync.WaitGroup
	var events int
	if sp.Geo {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			events = d.churn(in, t0, &sent, &leaveWG)
		}()
	}
	var relayWG sync.WaitGroup
	var ingest, egress []int64
	if d.traced && len(d.relays) > 0 {
		ingest, egress = make([]int64, last+1), make([]int64, last+1)
		relayWG.Add(1)
		go func() {
			defer relayWG.Done()
			d.pollRelays(ingest, egress)
		}()
	}
	for i := 0; i < ticks && d.err() == nil; i++ {
		k := firstTick + i
		due := t0.Add(time.Duration(i) * sp.Period)
		time.Sleep(time.Until(due))
		for _, p := range in.inserts[i] {
			mirror.Insert(p, tuplePayload)
		}
		d.cycle(k, due.UnixNano(), true, rootReq{Ins: in.inserts[i]})
		t.tickLate = append(t.tickLate, float64(d.table.cs[k].sent-due.UnixNano())/1e6)
		sent.Store(int32(k))
	}
	churnWG.Wait()
	leaveWG.Wait()
	relayWG.Wait()
	if err := d.waitKnown(last, time.Minute); err != nil {
		return err
	}
	// Sessions that never catch up, and relays that never drain, are
	// the gate's to report.
	behind := d.waitReached(last, false, 30*time.Second)
	window := time.Since(t0)
	fleetCPU := cpuTime() - cpu0
	end, err := d.stats()
	if err != nil {
		return err
	}

	// Closing cycle: once joins and leaves have settled, full answers
	// to every remaining session.
	subs := len(d.liveSessions()) * sp.QueriesPerSession
	resp, err := d.root.call(rootReq{Op: "await", N: subs}, time.Minute)
	if err != nil {
		return err
	}
	if resp.Err != "" && behind == nil {
		behind = fmt.Errorf("closing subscriptions: %s", resp.Err)
	}
	closing := last + 1
	d.cycle(closing, time.Now().UnixNano(), false, rootReq{})
	if err := d.waitKnown(closing, time.Minute); err != nil {
		return err
	}
	if err := d.waitReached(closing, true, time.Minute); err != nil && behind == nil {
		behind = err
	}
	if err := d.waitRelaysDrained(10 * time.Second); err != nil && behind == nil {
		behind = err
	}
	final, err := d.stats()
	if err != nil {
		return err
	}
	d.stopSessions()
	for _, s := range d.sessions {
		d.resolve(s) // every cycle is known now
		st := s.nc.Extractor().Stats()
		t.irrelevant += st.IrrelevantBytes
		t.received += st.IrrelevantBytes + st.RelevantBytes
		ns := s.nc.Stats()
		t.reconnects += max(0, ns.Connects-1)
		t.gapRefreshes += ns.GapRefreshes
	}
	if err := d.err(); err != nil {
		return err
	}
	g := d.auditFrames(closing)
	d.auditAnswers(&g, mirror)
	d.auditCounters(&g, final)
	if behind != nil {
		g.problem("%v", behind)
	}
	t.gate.add(g)

	t.deployments++
	t.ticks += ticks
	t.churnEvents += events
	t.window += window
	t.fleetCPU += fleetCPU
	ds := deployStats{h: d.h, rootCPUNanos: end.CPUNanos - start.CPUNanos}
	if t.counters == nil {
		t.counters = map[string]float64{}
	}
	for name, v := range end.Counters {
		t.counters[name] += v - start.Counters[name]
	}
	for k := firstTick; k <= last; k++ {
		ci := &d.table.cs[k]
		ds.frames += ci.frames.Load()
		if lh := ci.last.Load(); lh > 0 {
			ds.drainSeconds += float64(lh-ci.due) / 1e9
		}
		t.queueDepth = max(t.queueDepth, ci.queueDepth)
	}
	if ds.frames == 0 || ds.drainSeconds <= 0 {
		return errors.New("no frames handled in the measured window")
	}
	t.per = append(t.per, ds)
	if d.traced {
		t.addTrace(d, final.Ledger, last, ingest, egress)
	}
	return nil
}

// addTrace adds one traced deployment's per-cycle stage times: root
// stages from its cycle ledger (cycle 1 there is the bootstrap, so
// table cycle k is ledger cycle k+1), relay stages from the poller, and
// its spans.
func (t *tally) addTrace(d *deployment, ledger []daemon.CycleRecord, last int, ingest, egress []int64) {
	recs := map[uint64]daemon.CycleRecord{}
	for _, r := range ledger {
		recs[r.Cycle] = r
	}
	for k := firstTick; k <= last; k++ {
		ci := &d.table.cs[k]
		r, ok := recs[uint64(k)+1]
		if !ok {
			t.ledgerMissing++
			continue
		}
		t.plan = append(t.plan, r.PlanSeconds*1e3)
		t.publish = append(t.publish, r.FanoutSeconds*1e3)
		t.encode = append(t.encode, r.EncodeSeconds*1e3)
		switch r.Mode {
		case "full":
			t.fullPlans++
		case "incremental":
			t.incrementalPlans++
		}
		rootDone := ci.end + int64(r.WriteSeconds*1e9)
		if r.WritePending {
			// Frames queued to a session that left are never written,
			// so that cycle's write stage never completes.
			t.writesPending++
		} else {
			t.write = append(t.write, r.WriteSeconds*1e3)
		}
		s := span{Deployment: t.deployments, Cycle: k, Due: ci.due, Sent: ci.sent, Start: ci.start,
			PlanEnd: ci.start + int64(r.PlanSeconds*1e9), Mode: r.Mode,
			EncodeNanos: int64(r.EncodeSeconds * 1e9), FanoutNanos: int64(r.FanoutSeconds * 1e9),
			End: ci.end, WriteDone: rootDone, Frames: ci.frames.Load(), LastHandled: ci.last.Load()}
		if k < len(ingest) && ingest[k] > 0 && egress[k] > 0 {
			s.IngestDone, s.EgressDone = ingest[k], egress[k]
			t.ingest = append(t.ingest, float64(max(0, ingest[k]-rootDone))/1e6)
			t.egress = append(t.egress, float64(egress[k]-ingest[k])/1e6)
		}
		t.spans = append(t.spans, s)
	}
	t.relayWritten += d.relaySum(func(rl *relay.Relay) uint64 { return rl.Metrics().FanoutFramesWritten.Load() })
	t.relayFlushes += d.relaySum(func(rl *relay.Relay) uint64 { return rl.Metrics().FanoutFlushes.Load() })
}

// churn fires the seeded churn schedule. At each event one live
// session leaves and a new one joins: a shipped netclient with a fresh
// client id and new queries. The leaver stays in scope up to the last
// tick sent before the event: it first handles that cycle's frames,
// then closes like a shipped client does.
func (d *deployment) churn(in inputs, t0 time.Time, sent *atomic.Int32, leaveWG *sync.WaitGroup) (events int) {
	nextID := len(in.initial) + 1
	for _, at := range in.churn {
		time.Sleep(time.Until(t0.Add(at)))
		if d.err() != nil {
			return
		}
		if err := d.startSession(nextID, in.joiners[events], true); err != nil {
			d.fail(err)
			return
		}
		nextID++
		events++
		// A leaver must have handled a frame, so that its scope is
		// defined by the cycles it was bound in.
		var cands []*session
		for _, s := range d.liveSessions() {
			if s.leaveAfter.Load() == stays && s.progress.Load() != 0 {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			continue
		}
		s := cands[in.pick.Intn(len(cands))]
		k := int(sent.Load())
		s.leaveAfter.Store(int32(k))
		leaveWG.Add(1)
		go func() {
			defer leaveWG.Done()
			deadline := time.Now().Add(30 * time.Second)
			for !s.reached(&d.table, k) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			s.cancel()
			<-s.done
			d.mu.Lock()
			delete(d.live, s.id)
			d.mu.Unlock()
		}()
	}
	return events
}

// pollRelays times each measured cycle's relay stages: ingest completes
// when the tier's upstream frame count reaches the cycle's share, and
// egress when its written count catches up with what it enqueued. The
// fanout workloads publish the bootstrap's message count every cycle, so
// both targets are known in advance.
func (d *deployment) pollRelays(ingest, egress []int64) {
	var perCycle uint64
	for _, n := range d.table.cs[0].msgs {
		perCycle += n
	}
	perCycle *= uint64(len(d.relays))
	frames := func(rl *relay.Relay) uint64 { return rl.Metrics().RelayFrames.Load() }
	delivered := func(rl *relay.Relay) uint64 { return rl.Metrics().FanoutDeliveries.Load() }
	written := func(rl *relay.Relay) uint64 { return rl.Metrics().FanoutFramesWritten.Load() }
	base := d.relaySum(frames) // bootstrap and warm-up
	deadline := time.Now().Add(time.Duration(len(ingest)+10) * d.sp.Period)
	poll := func(cond func() bool) int64 {
		for !cond() {
			if time.Now().After(deadline) || d.err() != nil {
				return 0
			}
			time.Sleep(50 * time.Microsecond)
		}
		return time.Now().UnixNano()
	}
	for k := firstTick; k < len(ingest); k++ {
		target := base + uint64(k-firstTick+1)*perCycle
		ingest[k] = poll(func() bool { return d.relaySum(frames) >= target })
		out := d.relaySum(delivered)
		egress[k] = poll(func() bool { return d.relaySum(written) >= out })
	}
}

// waitRelaysDrained waits until each relay has written every frame it
// enqueued.
func (d *deployment) waitRelaysDrained(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, rl := range d.relays {
		m := rl.Metrics()
		for m.FanoutFramesWritten.Load() != m.FanoutDeliveries.Load() {
			if time.Now().After(deadline) {
				return fmt.Errorf("relay wrote %d of %d frames after %s", m.FanoutFramesWritten.Load(), m.FanoutDeliveries.Load(), timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// auditCounters cross-checks the program's own counters against the
// cycle table: the root encodes each message once, drops and evicts
// nothing, and on the fanout workloads (no churn) writes exactly the
// frames the sessions were owed — one per message per relay when
// relayed, with the relay tier ingesting exactly those.
func (d *deployment) auditCounters(g *gate, final rootResp) {
	c := final.Counters
	var messages uint64
	for k := range d.table.cs {
		for _, n := range d.table.cs[k].msgs {
			messages += n
		}
	}
	if uint64(c["encodes"]) != messages || uint64(c["messages"]) != messages {
		g.problem("root encoded %v frames and published %v messages, want %d each", c["encodes"], c["messages"], messages)
	}
	if c["dropped"] != 0 || c["evictions"] != 0 || c["sessionsEvicted"] != 0 {
		g.problem("root dropped %v frames and evicted %v sessions", c["dropped"], c["sessionsEvicted"])
	}
	if d.sp.Geo {
		return
	}
	if len(d.relays) == 0 {
		if uint64(c["framesWritten"]) != g.expected {
			g.problem("root wrote %v answer frames, sessions were owed %d", c["framesWritten"], g.expected)
		}
		return
	}
	feed := messages * uint64(len(d.relays))
	if uint64(c["framesWritten"]) != feed {
		g.problem("root wrote %v frames to the relay tier, want %d", c["framesWritten"], feed)
	}
	if got := d.relaySum(func(rl *relay.Relay) uint64 { return rl.Metrics().RelayFrames.Load() }); got != feed {
		g.problem("relay tier ingested %d frames, want %d", got, feed)
	}
	if got := d.relaySum(func(rl *relay.Relay) uint64 { return rl.Metrics().FanoutDropped.Load() }); got != 0 {
		g.problem("relay tier dropped %d frames", got)
	}
}
