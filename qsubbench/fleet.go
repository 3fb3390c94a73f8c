package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/daemon"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relay"
)

// cycleInfo is one publish cycle as the fleet sees it. Cycle 0 is the
// set-up's full-answer bootstrap and cycle 1 an untimed warm-up tick:
// the root's first delta publish after a full one ships full answers.
// Cycles 2..n+1 are the measured ticks and cycle n+2 is the closing
// full-answer cycle.
type cycleInfo struct {
	// due is when the fleet meant to send the cycle (its tick's due
	// time); sent is when it did.
	due, sent int64
	// Root-reported: RunCycle start and return, each channel's last
	// sequence number after the cycle and its message count.
	start, end int64
	hi, msgs   []uint64
	queueDepth int64

	// Frames of this cycle handled by any session, and the latest
	// handling time.
	frames atomic.Uint64
	last   atomic.Int64
}

// cycleTable holds every cycle of a deployment. Entries [0, known) are
// complete; sessions read only those, and the reply reader fills entry
// known before publishing it by advancing known.
type cycleTable struct {
	cs    []cycleInfo
	known atomic.Int32
}

// cycleOf returns the cycle that published seq on ch: the first known
// cycle whose last sequence number on ch is at least seq, or -1.
func (t *cycleTable) cycleOf(ch int, seq uint64) int {
	known := int(t.known.Load())
	k := sort.Search(known, func(k int) bool { return t.cs[k].hi[ch] >= seq })
	if k == known {
		return -1
	}
	return k
}

// hiBefore is the last sequence number on ch before cycle k.
func (t *cycleTable) hiBefore(k, ch int) uint64 {
	if k == 0 {
		return 0
	}
	return t.cs[k-1].hi[ch]
}

// frameRec is one handled answer frame awaiting its cycle.
type frameRec struct {
	seq                     uint64
	ch                      int
	stamp, nextRet, handled int64
}

// chanRun is a run of frames a session handled on one channel between
// two channel assignments.
type chanRun struct {
	ch                       int
	first, last, count, dups uint64
}

// session is one subscriber under test: a shipped netclient with its
// queries, and the bookkeeping its OnEvent callback keeps.
type session struct {
	id      int
	queries []query.Query
	nc      *netclient.Client
	cancel  context.CancelFunc
	done    chan struct{}

	// leaveAfter is a leaver's last cycle in scope, or stays for
	// sessions that stay to the end.
	leaveAfter atomic.Int32
	// progress packs the channel (high 16 bits) and sequence number of
	// the newest handled frame.
	progress atomic.Uint64

	// Owned by the session's goroutine until done is closed. subSent
	// holds the send time of each Subscribe of a session that samples
	// subscribe latency, -1 once sampled; unsampled counts the rest.
	subSent   map[query.ID]int64
	unsampled int
	nextRet   int64
	cur       int
	pending   []frameRec
	segs      []chanRun
	assigned  bool
}

const progressSeqBits = 48

// firstTick is the table index of the first measured tick.
const firstTick = 2

const stays = -1

// reached reports whether s has handled the last frame cycle k
// published on its channel. A session bound to a channel receives a
// message on it every cycle (its own merged set's), so a newer frame on
// any channel means cycle k is behind it too.
func (s *session) reached(t *cycleTable, k int) bool {
	p := s.progress.Load()
	if p == 0 || int(t.known.Load()) <= k {
		return false
	}
	ch, seq := int(p>>progressSeqBits), p&(1<<progressSeqBits-1)
	return seq >= t.cs[k].hi[ch]
}

// timedConn wraps the daemon connection a netclient dials, to time
// Subscribe sends and Next returns from outside the program.
type timedConn struct {
	*daemon.Conn
	s      *session
	traced bool
}

func (c *timedConn) Subscribe(q query.Query) error {
	if c.s.subSent != nil {
		if _, ok := c.s.subSent[q.ID]; !ok {
			c.s.subSent[q.ID] = time.Now().UnixNano()
			c.s.unsampled++
		}
	}
	return c.Conn.Subscribe(q)
}

func (c *timedConn) Next() (daemon.Event, error) {
	ev, err := c.Conn.Next()
	if c.traced {
		c.s.nextRet = time.Now().UnixNano()
	}
	return ev, err
}

// hists are the per-frame distributions, in nanoseconds.
type hists struct {
	// deliver is tick due → the end of the client's Handle, over the
	// measured cycles.
	deliver hist
	// subscribe is a probe's Subscribe send → its first handled frame
	// carrying that query.
	subscribe hist
	// Traced runs split deliver into four contiguous segments: due →
	// RunCycle start (queue), → the frame's publish stamp (publish), →
	// Next return (recv), → the end of Handle (extract).
	queue, publish, recv, extract hist
}

// deployment is one set-up of the system: a root process, optional
// relays and the session fleet.
type deployment struct {
	sp     spec
	traced bool
	table  cycleTable
	h      *hists

	root   *rootProc
	relays []*relay.Relay
	addrs  []string

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup // session goroutines
	relayCtx context.Context
	relayEnd context.CancelFunc
	relayWG  sync.WaitGroup

	mu       sync.Mutex
	sessions []*session // every session ever started, in start order
	live     map[int]*session
	dialed   int

	failMu sync.Mutex
	failed error
}

func (d *deployment) fail(err error) {
	d.failMu.Lock()
	if d.failed == nil {
		d.failed = err
	}
	d.failMu.Unlock()
}

func (d *deployment) err() error {
	d.failMu.Lock()
	defer d.failMu.Unlock()
	return d.failed
}

// onEvent is every session's netclient OnEvent callback; it runs after
// client.Handle has extracted the frame.
func (d *deployment) onEvent(s *session, ev daemon.Event) {
	now := time.Now().UnixNano()
	switch {
	case ev.Assigned != nil:
		s.assigned = true
	case ev.Answer != nil:
		m := ev.Answer
		ch, seq := m.Channel, m.Seq
		if n := len(s.segs); n == 0 || s.assigned || s.segs[n-1].ch != ch {
			s.segs = append(s.segs, chanRun{ch: ch, first: seq, last: seq, count: 1})
			s.assigned = false
		} else {
			g := &s.segs[n-1]
			if seq <= g.last {
				g.dups++
			} else {
				g.last = seq
			}
			g.count++
		}
		s.progress.Store(uint64(ch)<<progressSeqBits | seq)
		s.pending = append(s.pending, frameRec{seq: seq, ch: ch, stamp: m.PublishedUnixNano, nextRet: s.nextRet, handled: now})
		d.resolve(s)
		if s.unsampled > 0 {
			if hdr, ok := m.EntryFor(s.id); ok {
				for _, qid := range hdr.QueryIDs {
					if t0, ok := s.subSent[qid]; ok && t0 > 0 {
						d.h.subscribe.add(now - t0)
						s.subSent[qid] = -1
						s.unsampled--
					}
				}
			}
		}
	}
}

// resolve attributes s's pending frames to their cycles, as far as the
// cycle table is known. A session's frames arrive in cycle order, so
// its cursor only moves forward.
func (d *deployment) resolve(s *session) {
	t := &d.table
	known := int(t.known.Load())
	i := 0
	for ; i < len(s.pending); i++ {
		f := &s.pending[i]
		for s.cur < known && t.cs[s.cur].hi[f.ch] < f.seq {
			s.cur++
		}
		if s.cur >= known {
			break
		}
		d.record(s.cur, f)
	}
	if i > 0 {
		s.pending = s.pending[:copy(s.pending, s.pending[i:])]
	}
}

func (d *deployment) record(k int, f *frameRec) {
	ci := &d.table.cs[k]
	ci.frames.Add(1)
	for {
		cur := ci.last.Load()
		if f.handled <= cur || ci.last.CompareAndSwap(cur, f.handled) {
			break
		}
	}
	if k < firstTick || k == len(d.table.cs)-1 {
		return // set-up, warm-up and closing cycles are not timed
	}
	d.h.deliver.add(f.handled - ci.due)
	if d.traced {
		d.h.queue.add(ci.start - ci.due)
		d.h.publish.add(f.stamp - ci.start)
		d.h.recv.add(f.nextRet - f.stamp)
		d.h.extract.add(f.handled - f.nextRet)
	}
}

// startSession dials one netclient session at the next address.
func (d *deployment) startSession(id int, qs []query.Query, probe bool) error {
	s := &session{id: id, queries: qs, done: make(chan struct{})}
	s.leaveAfter.Store(stays)
	if probe {
		s.subSent = make(map[query.ID]int64, len(qs))
	}
	d.mu.Lock()
	addr := d.addrs[d.dialed%len(d.addrs)]
	d.dialed++
	d.mu.Unlock()
	nc, err := netclient.New(netclient.Config{
		Addr:       addr,
		ClientID:   id,
		Queries:    qs,
		MinBackoff: 50 * time.Millisecond,
		MaxBackoff: 2 * time.Second,
		JitterSeed: int64(id),
		Dial: func(addr string, clientID int) (netclient.Session, error) {
			c, err := daemon.Dial(addr, clientID)
			if err != nil {
				return nil, err
			}
			return &timedConn{Conn: c, s: s, traced: d.traced}, nil
		},
		OnEvent: func(ev daemon.Event) { d.onEvent(s, ev) },
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(d.ctx)
	s.nc, s.cancel = nc, cancel
	d.mu.Lock()
	d.sessions = append(d.sessions, s)
	d.live[id] = s
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer close(s.done)
		_ = nc.Run(ctx) // ends with ctx; dial errors retry inside
	}()
	return nil
}

// liveSessions returns the sessions still running, in id order.
func (d *deployment) liveSessions() []*session {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*session, 0, len(d.live))
	for _, s := range d.live {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// waitReached waits until every live session that has handled a frame
// (all of them when all is set) has handled cycle k's last frame.
func (d *deployment) waitReached(k int, all bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		behind := 0
		d.mu.Lock()
		for _, s := range d.live {
			if s.leaveAfter.Load() != stays || (!all && s.progress.Load() == 0) {
				continue
			}
			if !s.reached(&d.table, k) {
				behind++
			}
		}
		d.mu.Unlock()
		if behind == 0 {
			return nil
		}
		if err := d.err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d sessions had not handled cycle %d after %s", behind, k, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// cycle sends cycle k, due at due, to the root with req's inserts. The
// reply fills the table entry asynchronously and then publishes it.
func (d *deployment) cycle(k int, due int64, delta bool, req rootReq) {
	ci := &d.table.cs[k]
	ci.due, ci.sent = due, time.Now().UnixNano()
	req.Op, req.Delta = "cycle", delta
	d.root.async(req, func(resp rootResp, err error) {
		if err == nil && resp.Err != "" {
			err = errors.New(resp.Err)
		}
		if err != nil {
			d.fail(fmt.Errorf("cycle %d: %w", k, err))
			return
		}
		ci.start, ci.end, ci.hi, ci.msgs = resp.Start, resp.End, resp.Hi, resp.Msgs
		ci.queueDepth = resp.QueueDepth
		if len(ci.hi) != d.sp.Channels || len(ci.msgs) != d.sp.Channels {
			d.fail(fmt.Errorf("cycle %d: root reported %d channels, want %d", k, len(ci.hi), d.sp.Channels))
			return
		}
		d.table.known.Store(int32(k + 1))
	})
}

// waitKnown waits until cycles [0, k] are known.
func (d *deployment) waitKnown(k int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for int(d.table.known.Load()) <= k {
		if err := d.err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("root had not finished cycle %d after %s", k, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// setUp starts a deployment and runs its bootstrap cycle: it returns
// once every session is subscribed and has handled its bootstrap
// frames. maxCycles sizes the cycle table.
func setUp(sp spec, seed int64, traced, probe bool, initial [][]query.Query, maxCycles int, rootCPUs []int, h *hists) (*deployment, error) {
	d := &deployment{sp: sp, traced: traced, h: h, live: make(map[int]*session)}
	d.table.cs = make([]cycleInfo, maxCycles)
	d.ctx, d.cancel = context.WithCancel(context.Background())
	d.relayCtx, d.relayEnd = context.WithCancel(context.Background())
	root, err := startRoot(sp, seed, traced, rootCPUs)
	if err != nil {
		d.tearDown()
		return nil, err
	}
	d.root = root
	d.addrs = []string{root.hello.Addr}
	if sp.Relays > 0 {
		if err := d.startRelays(); err != nil {
			d.tearDown()
			return nil, err
		}
	}
	for i, qs := range initial {
		if err := d.startSession(i+1, qs, probe); err != nil {
			d.tearDown()
			return nil, err
		}
		if (i+1)%64 == 0 {
			// Pace the dial storm so the accept backlogs keep up.
			time.Sleep(200 * time.Microsecond)
		}
	}
	resp, err := d.root.call(rootReq{Op: "await", N: len(initial) * sp.QueriesPerSession}, time.Minute)
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	if err != nil {
		d.tearDown()
		return nil, fmt.Errorf("set-up subscriptions: %w", err)
	}
	now := time.Now().UnixNano()
	d.cycle(0, now, false, rootReq{})
	if err := d.waitKnown(0, time.Minute); err != nil {
		d.tearDown()
		return nil, err
	}
	if err := d.waitReached(0, true, time.Minute); err != nil {
		d.tearDown()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return d, nil
}

func (d *deployment) startRelays() error {
	for i := 0; i < d.sp.Relays; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		rl, err := relay.New(relay.Config{
			Upstream:   d.root.hello.Addr,
			RelayID:    1<<30 + i,
			MinBackoff: 25 * time.Millisecond,
			MaxBackoff: time.Second,
			JitterSeed: int64(i + 1),
		})
		if err != nil {
			ln.Close()
			return err
		}
		d.relays = append(d.relays, rl)
		d.addrs = append(d.addrs, ln.Addr().String())
		d.relayWG.Add(1)
		go func() {
			defer d.relayWG.Done()
			if err := rl.Run(d.relayCtx, ln); err != nil && d.relayCtx.Err() == nil {
				d.fail(fmt.Errorf("relay: %w", err))
			}
		}()
	}
	d.addrs = d.addrs[1:] // sessions dial the relays only
	deadline := time.Now().Add(30 * time.Second)
	for _, rl := range d.relays {
		for !rl.Status().Relay.Connected {
			if time.Now().After(deadline) {
				return errors.New("relays not connected upstream after 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// relaySum sums one counter over the relay tier.
func (d *deployment) relaySum(get func(*relay.Relay) uint64) uint64 {
	var n uint64
	for _, rl := range d.relays {
		n += get(rl)
	}
	return n
}

// stopSessions cancels every live session and waits for all session
// goroutines to end.
func (d *deployment) stopSessions() {
	for _, s := range d.liveSessions() {
		s.cancel()
	}
	d.wg.Wait()
}

// tearDown stops sessions, relays and the root process, and waits for
// each.
func (d *deployment) tearDown() {
	d.cancel()
	d.wg.Wait()
	d.relayEnd()
	d.relayWG.Wait()
	if d.root != nil {
		d.root.close()
	}
}

// rootProc is the fleet's handle on the root child process.
type rootProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	hello rootResp

	mu      sync.Mutex
	waiting []func(rootResp, error) // reply handlers, in request order
	readerr error
	readEnd chan struct{}
}

func startRoot(sp spec, seed int64, traced bool, cpus []int) (*rootProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg, err := json.Marshal(map[string]any{"spec": sp, "seed": seed, "traced": traced, "cpus": cpus})
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), rootEnv+"="+string(cfg), fmt.Sprintf("GOMAXPROCS=%d", rootProcs()))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &rootProc{cmd: cmd, stdin: stdin, readEnd: make(chan struct{})}
	dec := json.NewDecoder(stdout)
	if err := dec.Decode(&r.hello); err != nil {
		r.close()
		return nil, fmt.Errorf("root process did not start: %w", err)
	}
	go r.read(dec)
	return r, nil
}

// read hands each reply to the handler of the request it answers.
func (r *rootProc) read(dec *json.Decoder) {
	defer close(r.readEnd)
	for {
		var resp rootResp
		err := dec.Decode(&resp)
		r.mu.Lock()
		if err != nil {
			r.readerr = fmt.Errorf("root process: %w", err)
			waiting := r.waiting
			r.waiting = nil
			r.mu.Unlock()
			for _, h := range waiting {
				h(rootResp{}, r.readerr)
			}
			return
		}
		if len(r.waiting) == 0 {
			r.mu.Unlock()
			continue
		}
		h := r.waiting[0]
		r.waiting = r.waiting[1:]
		r.mu.Unlock()
		h(resp, nil)
	}
}

// async sends req; done runs with its reply on the reader goroutine.
func (r *rootProc) async(req rootReq, done func(rootResp, error)) {
	line, err := json.Marshal(req)
	if err != nil {
		done(rootResp{}, err)
		return
	}
	r.mu.Lock()
	if r.readerr != nil {
		err := r.readerr
		r.mu.Unlock()
		done(rootResp{}, err)
		return
	}
	r.waiting = append(r.waiting, done)
	_, err = r.stdin.Write(append(line, '\n'))
	r.mu.Unlock()
	if err != nil {
		done(rootResp{}, fmt.Errorf("root process: %w", err))
	}
}

// call sends req and waits for its reply.
func (r *rootProc) call(req rootReq, timeout time.Duration) (rootResp, error) {
	type reply struct {
		resp rootResp
		err  error
	}
	ch := make(chan reply, 1)
	r.async(req, func(resp rootResp, err error) { ch <- reply{resp, err} })
	select {
	case rep := <-ch:
		return rep.resp, rep.err
	case <-time.After(timeout):
		return rootResp{}, fmt.Errorf("root process: no reply to %q after %s", req.Op, timeout)
	}
}

// close asks the root to quit and waits for it, killing it if it does
// not exit in time.
func (r *rootProc) close() {
	line, _ := json.Marshal(rootReq{Op: "quit"})
	r.mu.Lock()
	_, _ = r.stdin.Write(append(line, '\n')) // the process may already be gone
	r.mu.Unlock()
	r.stdin.Close()
	exited := make(chan struct{})
	go func() {
		_ = r.cmd.Wait() // exit status is irrelevant once the run is over
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = r.cmd.Process.Kill()
		<-exited
	}
	<-r.readEnd
}
