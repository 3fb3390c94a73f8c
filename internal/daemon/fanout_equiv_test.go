package daemon

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/wire"
)

// fanoutCfg parameterizes one wire-equivalence scenario.
type fanoutCfg struct {
	rtree    bool
	channels int
	policy   multicast.Policy
}

// fanoutWorld is the outcome of one daemon run: the exact bytes each
// client read off its socket, every published message (tapped per
// channel), and the fan-out counter values.
type fanoutWorld struct {
	streams   map[int][]byte
	published map[[2]uint64]multicast.Message // by (channel, seq)
	heads     map[int]uint64                  // last seq per channel
	messages  int                             // sum of Report.Messages across cycles
	encodes   uint64
	shared    uint64
	delivers  uint64
	bytes     uint64
}

// runFanoutWorld builds a deterministic daemon world (seeded relation,
// sequentially registered subscriptions, fixed solver seed), runs one
// full cycle plus three delta cycles with seeded churn, shuts down
// gracefully, and returns the raw per-client wire streams together
// with every message the cycles published, read off a tap subscription
// on each channel.
func runFanoutWorld(t *testing.T, cfg fanoutCfg) fanoutWorld {
	t.Helper()
	bounds := geom.R(0, 0, 1000, 1000)
	var rel *relation.Relation
	var err error
	if cfg.rtree {
		rel, err = relation.NewRTree(bounds, 8)
	} else {
		rel, err = relation.New(bounds, 16, 16)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1500; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
	}
	d, err := New(rel, cfg.channels, server.Config{
		Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 5},
		Seed:  42,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SlowPolicy = cfg.policy
	d.Now = func() int64 { return 1_700_000_000_000_000_000 }
	// Buffers are deep enough that no policy ever actually drops or
	// evicts: the policies' enqueue paths run, but every published
	// message reaches every subscriber of its channel.
	d.SubscriberBuffer = 4096
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(context.Background(), ln)
	defer func() {
		d.Close()
		ln.Close()
	}()

	// Register clients strictly sequentially so the subscription
	// registry — and therefore the plan — is deterministic.
	const clients = 6
	conns := make([]net.Conn, clients)
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
		if err := wire.WriteFrame(conn, wire.TypeHello,
			wire.MarshalHello(wire.Hello{ClientID: i + 1})); err != nil {
			t.Fatal(err)
		}
		x, y := rng.Float64()*800, rng.Float64()*800
		w := 60 + rng.Float64()*180
		payload, err := wire.MarshalSubscribe(wire.Subscribe{
			Query: query.Range(query.ID(i+1), geom.R(x, y, x+w, y+w))})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, wire.TypeSubscribe, payload); err != nil {
			t.Fatal(err)
		}
		waitForSubscriptions(t, d, i+1)
	}

	// One tap per channel records every published message.
	taps := make([]*multicast.Subscription, cfg.channels)
	for ch := range taps {
		taps[ch], err = d.Network().SubscribeWith(ch, 1<<16, multicast.Block)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Capture each client's raw byte stream until the daemon's graceful
	// Bye (or close).
	out := fanoutWorld{
		streams:   make(map[int][]byte),
		published: make(map[[2]uint64]multicast.Message),
		heads:     make(map[int]uint64),
	}
	var mu sync.Mutex
	var readers sync.WaitGroup
	for i, conn := range conns {
		readers.Add(1)
		go func(id int, conn net.Conn) {
			defer readers.Done()
			var raw bytes.Buffer
			tee := io.TeeReader(conn, &raw)
			for {
				ft, _, err := wire.ReadFrame(tee)
				if err != nil || ft == wire.TypeBye {
					break
				}
			}
			mu.Lock()
			out.streams[id] = append([]byte(nil), raw.Bytes()...)
			mu.Unlock()
		}(i+1, conn)
	}

	cycle := func(delta bool) {
		rep, err := d.RunCycle(delta)
		if err != nil {
			t.Fatal(err)
		}
		out.messages += rep.Messages
	}
	cycle(false)
	for c := 0; c < 3; c++ {
		for i := 0; i < 60; i++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
		}
		all := rel.All()
		for i := 0; i < 15; i++ {
			rel.Delete(all[rng.Intn(len(all))].ID)
		}
		cycle(true)
	}
	d.Shutdown()
	readers.Wait()
	for ch, tap := range taps {
		for msg := range tap.C {
			out.published[[2]uint64{uint64(ch), msg.Seq}] = msg
			out.heads[ch] = msg.Seq
		}
	}

	cat := d.Metrics()
	out.encodes = cat.FanoutEncodes.Load()
	out.shared = cat.FanoutFramesShared.Load()
	out.delivers = cat.FanoutDeliveries.Load()
	out.bytes = cat.FanoutBytes.Load()
	return out
}

// oracleStream rebuilds a client's expected wire stream from the
// published messages: every answer frame the client read is replaced by
// the per-session encoding of the published message with the same
// channel and sequence number — wire.MarshalMessageAppend framed by
// wire.WriteFrame, the delivery path that predates encode-once — and
// control frames are kept as read. It also checks completeness: after
// each Assigned the answers run gap-free through their channel, and the
// stream ends at the channel's last published message. It returns the
// answer bytes the stream carried.
func oracleStream(t *testing.T, w fanoutWorld, id int, got []byte) (want []byte, answerBytes uint64) {
	t.Helper()
	var oracle bytes.Buffer
	r := bytes.NewReader(got)
	ch, next := -1, uint64(0)
	for {
		ft, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("client %d: unreadable stream: %v", id, err)
		}
		switch ft {
		case wire.TypeAssigned:
			a, err := wire.UnmarshalAssigned(payload)
			if err != nil {
				t.Fatal(err)
			}
			if a.Channel != ch {
				ch, next = a.Channel, 0
			}
			wire.WriteFrame(&oracle, ft, payload)
		case wire.TypeAnswer:
			m, err := wire.UnmarshalMessage(payload)
			if err != nil {
				t.Fatal(err)
			}
			if m.Channel != ch {
				t.Fatalf("client %d: answer on channel %d while assigned %d", id, m.Channel, ch)
			}
			if next != 0 && m.Seq != next {
				t.Fatalf("client %d: channel %d seq %d follows %d", id, ch, m.Seq, next-1)
			}
			next = m.Seq + 1
			pub, ok := w.published[[2]uint64{uint64(m.Channel), m.Seq}]
			if !ok {
				t.Fatalf("client %d: received unpublished message %d/%d", id, m.Channel, m.Seq)
			}
			wire.WriteFrame(&oracle, wire.TypeAnswer, wire.MarshalMessageAppend(nil, pub))
			answerBytes += uint64(wire.HeaderSize + len(payload))
		default:
			wire.WriteFrame(&oracle, ft, payload)
		}
	}
	if ch < 0 || next != w.heads[ch]+1 {
		t.Fatalf("client %d: stream ends at channel %d seq %d, channel head is %d", id, ch, next-1, w.heads[ch])
	}
	return oracle.Bytes(), answerBytes
}

// TestFanoutWireEquivalence pins the encode-once fabric against a
// per-session-encode oracle: the bytes on every client socket equal the
// independent encoding of the published messages they carry, across
// grid and R-tree relations, single and multi channel, and all three
// slow-consumer policies — while the fan-out counters confirm the
// fabric encoded once per message and shared that frame with every
// delivery.
func TestFanoutWireEquivalence(t *testing.T) {
	scenarios := []fanoutCfg{
		{rtree: false, channels: 1, policy: multicast.Block},
		{rtree: true, channels: 1, policy: multicast.Evict},
		{rtree: false, channels: 3, policy: multicast.Block},
		{rtree: false, channels: 3, policy: multicast.DropNewest},
		{rtree: true, channels: 3, policy: multicast.Evict},
	}
	for _, cfg := range scenarios {
		name := fmt.Sprintf("rtree=%v/channels=%d/policy=%d", cfg.rtree, cfg.channels, cfg.policy)
		t.Run(name, func(t *testing.T) {
			w := runFanoutWorld(t, cfg)
			if len(w.streams) != 6 {
				t.Fatalf("captured %d client streams, want 6", len(w.streams))
			}
			var answerBytes uint64
			for id, got := range w.streams {
				want, n := oracleStream(t, w, id, got)
				answerBytes += n
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("client %d stream differs from the oracle at byte %d (fabric %d bytes, oracle %d bytes)",
						id, i, len(got), len(want))
				}
			}

			if len(w.published) != w.messages {
				t.Fatalf("taps saw %d messages, cycles published %d", len(w.published), w.messages)
			}
			// Exactly one encode per published message, and every client
			// delivery reused that shared frame (the taps account for one
			// delivery per message).
			if w.encodes != uint64(w.messages) {
				t.Errorf("encoded %d frames for %d messages, want one encode per message", w.encodes, w.messages)
			}
			if w.shared+uint64(w.messages) != w.delivers {
				t.Errorf("%d shared-frame writes for %d client deliveries", w.shared, w.delivers-uint64(w.messages))
			}
			if w.bytes != answerBytes {
				t.Errorf("fan-out bytes %d, clients read %d answer bytes", w.bytes, answerBytes)
			}
		})
	}
}

// TestFanoutSharedFrameAliasingRace drives the real forwarder/writev
// path under -race with tiny buffers and the evict policy, so shared
// frames are concurrently written to sockets, drained by cancels and
// dropped by evictions while publish cycles keep encoding new ones. Any
// post-publish mutation of a shared frame is a read/write race with a
// forwarder and fails under the race detector; corrupted frames also
// fail to parse on the client side.
func TestFanoutSharedFrameAliasingRace(t *testing.T) {
	d, addr := startDaemon(t, 2)
	d.SubscriberBuffer = 1
	d.SlowPolicy = multicast.Evict

	const clients = 12
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		conn, err := Dial(addr, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Subscribe(query.Range(query.ID(100+i), geom.R(float64(i*50), 0, float64(i*50+400), 700))); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(conn *Conn, slow bool) {
			defer wg.Done()
			for {
				ev, err := conn.Next()
				if err != nil {
					return
				}
				if ev.Answer != nil && slow {
					// A slow consumer: let the delivery queue back up so
					// evictions race in-flight shared frames.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(conn, i%3 == 0)
	}
	waitForSubscriptions(t, d, clients)

	rng := rand.New(rand.NewSource(3))
	rel := d.Server().Relation()
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 40; i++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
		}
		if _, err := d.RunCycle(cycle > 0); err != nil {
			// The stress is allowed to evict every client (buffer depth
			// 1); a cycle with nothing left to plan ends the run early.
			break
		}
	}
	d.Shutdown()
	wg.Wait()
	if d.Metrics().FanoutEncodes.Load() == 0 {
		t.Fatal("stress run never encoded a shared frame")
	}
}
