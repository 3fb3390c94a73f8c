package multicast

import (
	"testing"

	"qsub/internal/relation"
)

func testMsg(channel int) Message {
	return Message{Channel: channel, Tuples: []relation.Tuple{{Payload: []byte("x")}}}
}

// TestEvictPolicy: a subscriber that stops draining is evicted at the
// publish that finds its buffer full — the publish completes immediately
// instead of blocking, the eviction is counted, and the subscriber's
// queue ends after the buffered backlog (TestBatchEvictPolicy reads it
// with NextBatch).
func TestEvictPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var evicted []*Subscription
	n.SetEvictHandler(func(s *Subscription) { evicted = append(evicted, s) })

	stalled, err := n.SubscribeWith(0, 1, Evict)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := n.SubscribeWith(0, 4, Evict)
	if err != nil {
		t.Fatal(err)
	}
	// First publish fills the stalled subscriber's 1-slot buffer; the
	// second finds it full and must evict rather than block.
	for i := 0; i < 2; i++ {
		if err := n.Publish(testMsg(0)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.SlowEvictions != 1 {
		t.Fatalf("SlowEvictions = %d, want 1", st.SlowEvictions)
	}
	if !stalled.Evicted() {
		t.Fatal("stalled subscription not marked evicted")
	}
	if healthy.Evicted() {
		t.Fatal("healthy subscription marked evicted")
	}
	if len(evicted) != 1 || evicted[0] != stalled {
		t.Fatalf("evict handler saw %v, want the stalled subscription", evicted)
	}
	// The backlog that fit the buffer is still delivered, then the queue
	// ends.
	if _, ok := stalled.Next(); !ok {
		t.Fatal("buffered message should survive eviction")
	}
	if _, ok := stalled.Next(); ok {
		t.Fatal("evicted subscription should end after its backlog")
	}
	// The healthy subscriber saw both messages.
	if got := healthy.Depth(); got != 2 {
		t.Fatalf("healthy subscriber has %d buffered messages, want 2", got)
	}
	healthy.Cancel()
}

// TestDropNewestPolicy: a full buffer drops the incoming copy (counted,
// surfacing to clients as a sequence gap) but keeps the subscription.
func TestDropNewestPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sub, err := n.SubscribeWith(0, 1, DropNewest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Publish(testMsg(0)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.OverflowDrops != 2 || st.Deliveries != 1 {
		t.Fatalf("OverflowDrops = %d, Deliveries = %d; want 2, 1", st.OverflowDrops, st.Deliveries)
	}
	if st.SlowEvictions != 0 || sub.Evicted() {
		t.Fatal("DropNewest must not evict")
	}
	// The first message survived; its seq is 1 and the next delivered
	// message (after draining) exposes the gap to the client.
	msg, _ := sub.Next()
	if msg.Seq != 1 {
		t.Fatalf("kept message seq = %d, want 1", msg.Seq)
	}
	if err := n.Publish(testMsg(0)); err != nil {
		t.Fatal(err)
	}
	n.Close()
	got := drainAll(sub)
	if len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("after the drops the subscription holds %v, want only seq 4 (seqs 2,3 dropped)", got)
	}
}

// TestParsePolicy covers the flag-facing round trip.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, Evict, DropNewest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("ParsePolicy should reject unknown names")
	}
}
