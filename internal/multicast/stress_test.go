package multicast

import (
	"sync"
	"testing"
	"time"
)

// TestPublishCancelStress hammers Publish against concurrent Cancel and
// Close. Against the pre-gate delivery path (send on a channel after
// releasing n.mu, close of that channel in Cancel) this crashed within a
// few hundred iterations with "send on closed channel"; the ring's send
// gate must keep it silent under -race, deadlock-free, with every
// publisher released. Half the consumers read a few messages with Next
// and stop (leaving Block publishers parked until Cancel); the other
// half drain with NextBatch until the subscription ends.
func TestPublishCancelStress(t *testing.T) {
	const (
		rounds      = 200
		subscribers = 8
		publishers  = 4
		messages    = 25
	)
	for round := 0; round < rounds; round++ {
		n, err := NewNetwork(2)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		subs := make([]*Subscription, subscribers)
		for i := range subs {
			sub, err := n.Subscribe(i%2, 1+i%4)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = sub
			wg.Add(1)
			if i%2 == 0 {
				go func(sub *Subscription) { // drains a little, then stops
					defer wg.Done()
					for j := 0; j < 3; j++ {
						if _, ok := sub.Next(); !ok {
							return
						}
					}
				}(sub)
			} else {
				go func(sub *Subscription) { // drains until the end
					defer wg.Done()
					drainAll(sub)
				}(sub)
			}
		}
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for j := 0; j < messages; j++ {
					n.Publish(testMessage(p % 2)) // errors after Close are fine
				}
			}(p)
		}
		// Cancel every subscription while publishes are in flight, twice
		// each to exercise idempotence, then close the whole network.
		for i, sub := range subs {
			wg.Add(1)
			go func(i int, sub *Subscription) {
				defer wg.Done()
				time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
				sub.Cancel()
				sub.Cancel()
			}(i, sub)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Close()
		}()
		wg.Wait()
		// Drain whatever was delivered before cancellation so nothing
		// leaks between rounds.
		for _, sub := range subs {
			drainNext(sub)
		}
	}
}
