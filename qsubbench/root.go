package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"

	"qsub/internal/daemon"
	"qsub/internal/geom"
)

// The root daemon runs in a child process of its own (the benchmark
// binary re-executed with rootEnv set), so its CPU time and RSS are its
// own and the fleet's sessions never share its scheduler. The fleet
// drives it with one JSON request per line on the child's stdin and
// reads one JSON reply per request from its stdout; requests are served
// strictly in order, so a tick sent while a cycle is still running
// waits in the pipe and that wait counts against its frames.
const rootEnv = "QSUBBENCH_ROOT"

type rootReq struct {
	Op    string       `json:"op"` // cycle, await, stats, quit
	Delta bool         `json:"delta,omitempty"`
	N     int          `json:"n,omitempty"`
	Ins   []geom.Point `json:"ins,omitempty"`
}

type rootResp struct {
	Err string `json:"err,omitempty"`

	// Hello.
	Addr       string `json:"addr,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`

	// cycle: RunCycle start and return times on the shared wall clock,
	// each channel's last sequence number after the cycle, and its
	// published message count.
	Start int64    `json:"start,omitempty"`
	End   int64    `json:"end,omitempty"`
	Hi    []uint64 `json:"hi,omitempty"`
	Msgs  []uint64 `json:"msgs,omitempty"`
	// QueueDepth is the deepest session delivery queue after the cycle.
	QueueDepth int64 `json:"queueDepth,omitempty"`

	// stats.
	CPUNanos int64                `json:"cpuNanos,omitempty"`
	MaxRSSKB int64                `json:"maxRSSKB,omitempty"`
	Counters map[string]float64   `json:"counters,omitempty"`
	Ledger   []daemon.CycleRecord `json:"ledger,omitempty"`
}

// runRoot is the child process's main.
func runRoot() int {
	var cfg struct {
		Spec   spec  `json:"spec"`
		Seed   int64 `json:"seed"`
		Traced bool  `json:"traced"`
		CPUs   []int `json:"cpus"`
	}
	if err := json.Unmarshal([]byte(os.Getenv(rootEnv)), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "qsubbench root: bad config: %v\n", err)
		return 2
	}
	if err := pinProcess(cfg.CPUs); err != nil {
		fmt.Fprintf(os.Stderr, "qsubbench root: pin to CPUs %v: %v\n", cfg.CPUs, err)
		return 2
	}
	if err := serveRoot(cfg.Spec, cfg.Seed, cfg.Traced, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qsubbench root: %v\n", err)
		return 1
	}
	return 0
}

func serveRoot(sp spec, seed int64, traced bool, in io.Reader, out io.Writer) error {
	rel, err := sp.newRelation(seed)
	if err != nil {
		return err
	}
	d, err := daemon.New(rel, sp.Channels, sp.serverConfig())
	if err != nil {
		return err
	}
	// A full-answer cycle to churn-geo's 1000 sessions is hundreds of
	// megabytes of frames that the fleet decodes on one CPU; the 10s
	// default write deadline would turn that backlog into dropped
	// sessions.
	d.WriteTimeout = time.Minute
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = d.Serve(ctx, ln) // ends when ln closes at shutdown
	}()
	defer func() {
		cancel()
		d.Shutdown()
		ln.Close()
		<-served
	}()

	enc := json.NewEncoder(out)
	if err := enc.Encode(rootResp{Addr: ln.Addr().String(), GoMaxProcs: runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	cat := d.Metrics()
	msgCounts := func() []uint64 {
		out := make([]uint64, cat.ChannelMessages.Len())
		for i := range out {
			out[i] = cat.ChannelMessages.At(i).Load()
		}
		return out
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	cycles := 0
	ledger := map[uint64]daemon.CycleRecord{}
	for sc.Scan() {
		var req rootReq
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			return fmt.Errorf("bad request: %w", err)
		}
		var resp rootResp
		switch req.Op {
		case "cycle":
			for _, p := range req.Ins {
				rel.Insert(p, tuplePayload)
			}
			before := msgCounts()
			resp.Start = time.Now().UnixNano()
			_, err := d.RunCycle(req.Delta)
			resp.End = time.Now().UnixNano()
			cycles++
			if err != nil {
				resp.Err = err.Error()
				break
			}
			resp.Msgs = msgCounts()
			resp.Hi = make([]uint64, sp.Channels)
			for ch := range resp.Hi {
				resp.Msgs[ch] -= before[ch]
				resp.Hi[ch] = d.Network().CurrentSeq(ch)
			}
			resp.QueueDepth = cat.SessionMaxQueueDepth.Load()
			if traced {
				mergeLedger(ledger, d.RecentCycles())
			}
		case "await":
			resp.Err = awaitSubs(d, req.N, 30*time.Second)
		case "stats":
			resp.Counters = counters(d)
			if traced {
				resp.Ledger = finalLedger(d, ledger, cycles, 2*time.Second)
			}
			// Usage last, so the ledger wait is not charged as idle.
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				resp.Err = err.Error()
			}
			resp.CPUNanos = ru.Utime.Nano() + ru.Stime.Nano()
			resp.MaxRSSKB = ru.Maxrss
		case "quit":
			return nil
		default:
			resp.Err = fmt.Sprintf("unknown op %q", req.Op)
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("request stream ended without quit")
}

// awaitSubs waits until exactly n subscriptions are registered and
// returns an error message if that does not happen in time.
func awaitSubs(d *daemon.Daemon, n int, timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for {
		got := d.Server().SubscriptionCount()
		if got == n {
			return ""
		}
		if time.Now().After(deadline) {
			return fmt.Sprintf("%d subscriptions registered after %s, want %d", got, timeout, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// mergeLedger copies the daemon's recent cycle records into all. The
// daemon keeps only its newest cycles, so the root merges after every
// cycle; a record's write stage may still be pending and is updated by
// a later merge.
func mergeLedger(all map[uint64]daemon.CycleRecord, recent []daemon.CycleRecord) {
	for _, r := range recent {
		all[r.Cycle] = r
	}
}

// finalLedger waits up to timeout for the write stage of every cycle
// run so far to finish and returns all records in cycle order. A
// session that leaves with frames still queued keeps its cycle's write
// stage from ever completing, so pending records are returned as such.
func finalLedger(d *daemon.Daemon, all map[uint64]daemon.CycleRecord, cycles int, timeout time.Duration) []daemon.CycleRecord {
	deadline := time.Now().Add(timeout)
	for {
		mergeLedger(all, d.RecentCycles())
		done := true
		for c := uint64(1); c <= uint64(cycles); c++ {
			if r, ok := all[c]; !ok || r.WritePending {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			out := make([]daemon.CycleRecord, 0, len(all))
			for c := uint64(1); c <= uint64(cycles); c++ {
				if r, ok := all[c]; ok {
					out = append(out, r)
				}
			}
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

// counters snapshots the root catalog's counters the report uses.
func counters(d *daemon.Daemon) map[string]float64 {
	c := d.Metrics()
	return map[string]float64{
		"deliveries":       float64(c.FanoutDeliveries.Load()),
		"dropped":          float64(c.FanoutDropped.Load()),
		"evictions":        float64(c.FanoutEvictions.Load()),
		"encodes":          float64(c.FanoutEncodes.Load()),
		"bytes":            float64(c.FanoutBytes.Load()),
		"framesWritten":    float64(c.FanoutFramesWritten.Load()),
		"flushes":          float64(c.FanoutFlushes.Load()),
		"plans":            float64(c.PlansTotal.Load()),
		"plansIncremental": float64(c.PlansIncremental.Load()),
		"messages":         float64(c.PublishMessages.Load()),
		"publishes":        float64(c.PublishesTotal.Load()),
		"deltaPublishes":   float64(c.PublishDeltas.Load()),
		"deltaTuples":      c.DeltaBatchTuples.Sum(),
		"sessionsEvicted":  float64(c.SessionsEvicted.Load()),
	}
}
