package multicast

import (
	"sync"
	"testing"
	"time"

	"qsub/internal/relation"
)

// drainAll consumes a batch subscription until it ends, returning every
// message in arrival order.
func drainAll(sub *Subscription) []Message {
	var got []Message
	for {
		batch, ok := sub.NextBatch()
		for _, m := range batch {
			got = append(got, *m)
		}
		if !ok {
			return got
		}
	}
}

func TestBatchSubscriptionDeliversInOrder(t *testing.T) {
	n, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(1, 8, Block)
	if err != nil {
		t.Fatal(err)
	}
	if sub.C != nil {
		t.Fatal("batch subscription must have a nil C")
	}
	const total = 20
	done := make(chan []Message)
	go func() { done <- drainAll(sub) }()
	for i := 0; i < total; i++ {
		if err := n.Publish(Message{Channel: 1, Tuples: []relation.Tuple{{ID: uint64(i)}}}); err != nil {
			t.Error(err)
		}
	}
	n.Close()
	got := <-done
	if len(got) != total {
		t.Fatalf("got %d messages, want %d", len(got), total)
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d has seq %d, want %d", i, m.Seq, i+1)
		}
		if m.Tuples[0].ID != uint64(i) {
			t.Fatalf("message %d carries tuple %d, want %d", i, m.Tuples[0].ID, i)
		}
	}
	st := n.Stats()
	if st.Deliveries != total {
		t.Fatalf("Deliveries = %d, want %d", st.Deliveries, total)
	}
}

func TestBatchBlockPolicyBackpressure(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 2, Block)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the ring, then start a publish that must block.
	for i := 0; i < 2; i++ {
		if err := n.Publish(Message{Channel: 0}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error)
	go func() { blocked <- n.Publish(Message{Channel: 0}) }()
	select {
	case <-blocked:
		t.Fatal("publish returned with a full Block-policy ring")
	case <-time.After(20 * time.Millisecond):
	}
	// One drain releases the publisher.
	batch, ok := sub.NextBatch()
	if !ok || len(batch) != 2 {
		t.Fatalf("NextBatch = %d messages, ok=%v; want 2, true", len(batch), ok)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	batch, ok = sub.NextBatch()
	if !ok || len(batch) != 1 || batch[0].Seq != 3 {
		t.Fatalf("NextBatch after release = %v, ok=%v; want the seq-3 message", batch, ok)
	}
	sub.Cancel()
	if _, ok := sub.NextBatch(); ok {
		t.Fatal("NextBatch must report done after Cancel")
	}
}

func TestBatchCancelReleasesBlockedPublisher(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 1, Block)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error)
	go func() { blocked <- n.Publish(Message{Channel: 0}) }()
	time.Sleep(10 * time.Millisecond)
	sub.Cancel()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	// The buffered message stays readable after Cancel.
	got := drainAll(sub)
	if len(got) != 1 {
		t.Fatalf("drained %d messages after Cancel, want the 1 buffered", len(got))
	}
}

func TestBatchEvictPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 1, Evict)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	// Ring full: this publish evicts the subscription instead of blocking.
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if !sub.Evicted() {
		t.Fatal("subscription should be evicted")
	}
	if st := n.Stats(); st.SlowEvictions != 1 {
		t.Fatalf("SlowEvictions = %d, want 1", st.SlowEvictions)
	}
	if got := drainAll(sub); len(got) != 1 {
		t.Fatalf("drained %d messages, want the 1 delivered before eviction", len(got))
	}
}

func TestBatchDropNewestPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 1, DropNewest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Publish(Message{Channel: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.Stats(); st.OverflowDrops != 2 || st.Deliveries != 1 {
		t.Fatalf("OverflowDrops = %d, Deliveries = %d; want 2, 1", st.OverflowDrops, st.Deliveries)
	}
	n.Close()
	got := drainAll(sub)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("kept %v, want only the first message", got)
	}
}

// TestBatchPublishCancelStress races concurrent publishers against
// cancellation, mirroring the channel-mode stress test: no send after
// close, no deadlock, every publisher released.
func TestBatchPublishCancelStress(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	const subs = 8
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		sub, err := n.SubscribeBatch(0, 4, Block)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			drainAll(sub)
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i%4) * time.Millisecond)
			sub.Cancel()
		}()
	}
	var pubs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 200; i++ {
				if err := n.Publish(Message{Channel: 0}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	pubs.Wait()
	n.Close()
	wg.Wait()
}

// TestPublishBatchEquivalence pins PublishBatch as observably equivalent
// to per-message Publish: same streams (order, seqs, payloads) for both
// ring-mode and channel-mode subscribers, same stats.
func TestPublishBatchEquivalence(t *testing.T) {
	const total = 50
	run := func(batch bool) ([]Message, []Message, Stats) {
		n, err := NewNetwork(2)
		if err != nil {
			t.Fatal(err)
		}
		ringSub, err := n.SubscribeBatch(1, 8, Block)
		if err != nil {
			t.Fatal(err)
		}
		chanSub, err := n.SubscribeWith(1, 8, Block)
		if err != nil {
			t.Fatal(err)
		}
		ringDone := make(chan []Message)
		go func() { ringDone <- drainAll(ringSub) }()
		chanDone := make(chan []Message)
		go func() {
			var got []Message
			for m := range chanSub.C {
				got = append(got, m)
			}
			chanDone <- got
		}()
		msgs := make([]Message, total)
		for i := range msgs {
			msgs[i] = Message{Channel: 1, Tuples: []relation.Tuple{{ID: uint64(i)}}}
		}
		if batch {
			if err := n.PublishBatch(msgs); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, m := range msgs {
				if err := n.Publish(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := n.Stats()
		n.Close()
		return <-ringDone, <-chanDone, st
	}
	ringB, chanB, stB := run(true)
	ringP, chanP, stP := run(false)
	if stB != stP {
		t.Errorf("stats differ: batch %+v, per-message %+v", stB, stP)
	}
	check := func(name string, got, want []Message) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d messages, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Tuples[0].ID != want[i].Tuples[0].ID {
				t.Fatalf("%s: message %d = seq %d tuple %d, want seq %d tuple %d",
					name, i, got[i].Seq, got[i].Tuples[0].ID, want[i].Seq, want[i].Tuples[0].ID)
			}
		}
	}
	check("ring subscriber", ringB, ringP)
	check("channel subscriber", chanB, chanP)
}

// TestPublishBatchSeqContinuity pins that Publish and PublishBatch share
// one per-channel sequence space with no gaps across the boundary.
func TestPublishBatchSeqContinuity(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 16, Block)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishBatch(make([]Message, 5)); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	n.Close()
	got := drainAll(sub)
	if len(got) != 7 {
		t.Fatalf("got %d messages, want 7", len(got))
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d has seq %d, want %d", i, m.Seq, i+1)
		}
	}
}

// TestPublishBatchBlockMidRun fills a Block-policy ring mid-run and
// checks the publisher parks until the consumer drains, losing nothing.
func TestPublishBatchBlockMidRun(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 3, Block)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []Message)
	go func() { done <- drainAll(sub) }()
	if err := n.PublishBatch(make([]Message, 10)); err != nil {
		t.Fatal(err)
	}
	n.Close()
	got := <-done
	if len(got) != 10 {
		t.Fatalf("got %d messages, want 10", len(got))
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d has seq %d, want %d", i, m.Seq, i+1)
		}
	}
}

// TestPublishBatchEvictMidRun checks a full Evict-policy ring ends the
// subscriber's run: buffered messages survive, the rest never land.
func TestPublishBatchEvictMidRun(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 2, Evict)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PublishBatch(make([]Message, 5)); err != nil {
		t.Fatal(err)
	}
	if !sub.Evicted() {
		t.Fatal("subscription should be evicted")
	}
	st := n.Stats()
	if st.SlowEvictions != 1 || st.Deliveries != 2 {
		t.Fatalf("SlowEvictions = %d, Deliveries = %d; want 1, 2", st.SlowEvictions, st.Deliveries)
	}
	if got := drainAll(sub); len(got) != 2 {
		t.Fatalf("drained %d messages, want the 2 buffered before eviction", len(got))
	}
}

// TestPublishBatchDropNewestMidRun checks overflow inside a run counts
// drops per message while keeping what fit.
func TestPublishBatchDropNewestMidRun(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 2, DropNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PublishBatch(make([]Message, 5)); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.OverflowDrops != 3 || st.Deliveries != 2 {
		t.Fatalf("OverflowDrops = %d, Deliveries = %d; want 3, 2", st.OverflowDrops, st.Deliveries)
	}
	n.Close()
	got := drainAll(sub)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("kept %v, want the first two messages", got)
	}
}

// TestPublishBatchRejectsMixedChannels pins the single-channel contract.
func TestPublishBatchRejectsMixedChannels(t *testing.T) {
	n, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	err = n.PublishBatch([]Message{{Channel: 0}, {Channel: 1}})
	if err == nil {
		t.Fatal("PublishBatch accepted a run spanning two channels")
	}
}
