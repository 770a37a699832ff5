package streamsvc

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSubscribePollCommit is the lock-order regression test for
// Consumer.Poll's documented ordering (c.mu, then one routing-snapshot
// load, never svc.mu): producers, subscriptions, polls, offset commits
// and topic creation all race; run under -race this fails on any
// reordering that reintroduces a data race or a lock-order inversion
// deadlock.
func TestConcurrentSubscribePollCommit(t *testing.T) {
	s := newService(t, 3)
	for i := 0; i < 3; i++ {
		if err := s.CreateTopic(TopicConfig{Name: fmt.Sprintf("t%d", i), StreamNum: 2}); err != nil {
			t.Fatal(err)
		}
	}
	const (
		consumers = 4
		rounds    = 50
	)
	var wg sync.WaitGroup
	// A producer keeps all topics moving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := s.Producer("plain")
		for i := 0; i < rounds; i++ {
			for topic := 0; topic < 3; topic++ {
				p.Send(fmt.Sprintf("t%d", topic), []byte("k"), []byte("v"))
			}
		}
	}()
	// Consumers subscribe incrementally while polling and committing.
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cons := s.Consumer(fmt.Sprintf("g%d", c%2))
			if err := cons.Subscribe("t0"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				if i == rounds/2 {
					if err := cons.Subscribe(fmt.Sprintf("t%d", 1+c%2)); err != nil {
						t.Error(err)
						return
					}
				}
				if _, _, err := cons.Poll(16); err != nil {
					t.Error(err)
					return
				}
				cons.CommitOffsets()
			}
		}(c)
	}
	// Topic churn on unrelated topics exercises svc.mu against the
	// pollers' one-shot topic snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("churn%d", i)
			if err := s.CreateTopic(TopicConfig{Name: name, StreamNum: 1}); err != nil {
				t.Error(err)
				return
			}
			if err := s.DeleteTopic(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// Every published message must still be consumable: no data loss from
	// the concurrent mutation.
	cons := s.Consumer("final")
	for i := 0; i < 3; i++ {
		if err := cons.Subscribe(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for {
		msgs, _, err := cons.Poll(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		total += len(msgs)
	}
	want := 3 * rounds
	if total != want {
		t.Fatalf("consumed %d messages, want %d", total, want)
	}
}
