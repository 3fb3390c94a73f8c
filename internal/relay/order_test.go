package relay

import (
	"bytes"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"qsub/internal/client"
	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/netfault"
	"qsub/internal/query"
)

// TestRelayReplanKeepsPreviousCycleTail pins the ordering contract
// across tiers: a replan that moves a relayed client to another channel
// reaches the relay exactly between the old channel's last answers and
// the new channel's first. The relay's upstream reads are stalled while
// delta cycles publish on the client's channel A, so the channel-A
// frames of cycle k are still queued at the root when the replan of
// cycle k+1 moves the client to channel B. If the wrapped Assigned
// overtook them, the relay would rebind early and drop the client's
// tail of cycle k; instead the client's extracted answer must equal
// direct evaluation of its query on the relation. The replanning cycle
// itself must not wait on the stalled relay.
func TestRelayReplanKeepsPreviousCycleTail(t *testing.T) {
	root, rootAddr := startRoot(t, 2)
	rel := root.Server().Relation()

	var fmu sync.Mutex
	var feed *netfault.Conn
	_, relayAddr, _ := startRelay(t, Config{
		Upstream: rootAddr,
		RelayID:  1 << 30,
		Logf:     t.Logf,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			fc := netfault.Wrap(c)
			fmu.Lock()
			feed = fc
			fmu.Unlock()
			return fc, nil
		},
	})

	rectX := geom.R(100, 100, 300, 300)
	qx := query.Range(1, rectX)
	x, err := daemon.Dial(relayAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.Subscribe(qx); err != nil {
		t.Fatal(err)
	}
	ext := client.New(1, qx)
	var mu sync.Mutex
	var assigned []int
	go func() {
		for {
			ev, err := x.Next()
			if err != nil {
				return
			}
			mu.Lock()
			switch {
			case ev.Assigned != nil:
				assigned = append(assigned, ev.Assigned.Channel)
			case ev.Answer != nil:
				ext.Handle(*ev.Answer)
			}
			mu.Unlock()
		}
	}()
	lastChannel := func() int {
		mu.Lock()
		defer mu.Unlock()
		if len(assigned) == 0 {
			return -1
		}
		return assigned[len(assigned)-1]
	}

	// A direct client far from X shapes the first plan; the churn step
	// below replaces it, which moves X to the other channel.
	newSubscriber(t, rootAddr, 2, query.Range(2, geom.R(600, 600, 900, 900)))
	waitForQueries(t, root, 2)
	if _, err := root.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first assignment", func() bool { return lastChannel() >= 0 })
	chA := lastChannel()

	fmu.Lock()
	feed.StallReads()
	fmu.Unlock()
	rng := rand.New(rand.NewSource(5))
	insert := func(n, size int) {
		for i := 0; i < n; i++ {
			rel.Insert(geom.Pt(110+rng.Float64()*180, 110+rng.Float64()*180), bytes.Repeat([]byte{'h'}, size))
		}
	}
	// The first stalled cycle overfills the socket buffers between root
	// and relay, so the root's feed blocks mid-write; the next 300
	// cycles queue behind it, more than one vectored flush holds, so
	// cycle k's channel-A frames are still queued at the root when the
	// replan arrives.
	insert(800, 4096)
	for c := 0; c <= 300; c++ {
		if _, err := root.RunCycle(true); err != nil {
			t.Fatal(err)
		}
		insert(1, 16)
	}

	// Cycle k+1 replans: the churn moves X off channel A.
	newSubscriber(t, rootAddr, 3, query.Range(3, geom.R(150, 150, 250, 250)))
	waitForQueries(t, root, 3)
	// The replan only queues the Assigned on the feed's ring: it must
	// not wait for the stalled relay to drain the socket, or one slow
	// relay would hold up every root cycle.
	replanned := make(chan error, 1)
	go func() {
		_, err := root.RunCycle(true)
		replanned <- err
	}()
	resume := func() {
		fmu.Lock()
		feed.ResumeReads()
		fmu.Unlock()
	}
	select {
	case err := <-replanned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		resume()
		<-replanned
		t.Fatal("the replanning cycle waited on the stalled relay's socket")
	}
	resume()

	want := make([]uint64, 0)
	for _, tp := range rel.All() {
		if qx.Matches(tp) {
			want = append(want, tp.ID)
		}
	}
	got := func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		ids := make([]uint64, 0)
		for _, tp := range ext.Answer(1) {
			ids = append(ids, tp.ID)
		}
		return ids
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	equal := func() bool {
		g := got()
		if len(g) != len(want) {
			return false
		}
		for i := range g {
			if g[i] != want[i] {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !equal() {
		if time.Now().After(deadline) {
			mu.Lock()
			seen := append([]int(nil), assigned...)
			mu.Unlock()
			t.Fatalf("relayed client extracted %d tuples, direct evaluation has %d (assignments %v)",
				len(got()), len(want), seen)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if chB := lastChannel(); chB == chA {
		t.Fatalf("the replan kept the client on channel %d; the test needs a move", chA)
	}
}
