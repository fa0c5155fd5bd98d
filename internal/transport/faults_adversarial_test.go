package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestFaultyCorrupt flips bytes in flight: with CorruptRate 1 every
// delivered datagram differs from what was sent, and two runs with the
// same seed mutate identically.
func TestFaultyCorrupt(t *testing.T) {
	run := func(seed int64) []string {
		ft := Faulty(newMemFabric(), FaultConfig{Seed: seed, CorruptRate: 1, Clock: vclock.NewVirtual()})
		defer ft.Close()
		var got []string
		if _, err := openEach(ft, 2, func(_ Addr, data []byte) {
			got = append(got, string(data))
		}); err != nil {
			t.Fatal(err)
		}
		ep, err := openEach(ft, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			orig := []byte(fmt.Sprintf("payload-%03d", i))
			sent := append([]byte(nil), orig...)
			ep.Send(2, sent)
			// The caller's buffer is never mutated in place.
			if !bytes.Equal(sent, orig) {
				t.Fatal("Send mutated the caller's buffer")
			}
		}
		st := ft.Stats()
		if st.Corrupted != 20 {
			t.Fatalf("Corrupted = %d, want 20", st.Corrupted)
		}
		return got
	}
	got := run(7)
	if len(got) != 20 {
		t.Fatalf("delivered %d datagrams, want 20", len(got))
	}
	for i, g := range got {
		if g == fmt.Sprintf("payload-%03d", i) {
			t.Fatalf("datagram %d delivered uncorrupted", i)
		}
	}
	if again := run(7); strings.Join(got, "\n") != strings.Join(again, "\n") {
		t.Fatal("same seed produced different corruptions")
	}
	if other := run(8); strings.Join(got, "\n") == strings.Join(other, "\n") {
		t.Fatal("different seeds produced identical corruptions")
	}
}

// TestFaultyCorruptLoopbackExempt keeps self-addressed traffic clean,
// matching the loss/delay exemptions.
func TestFaultyCorruptLoopbackExempt(t *testing.T) {
	ft := Faulty(newMemFabric(), FaultConfig{Seed: 1, CorruptRate: 1, Clock: vclock.NewVirtual()})
	defer ft.Close()
	var got []byte
	ep, err := openEach(ft, 1, func(_ Addr, data []byte) { got = data })
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(1, []byte("self"))
	if string(got) != "self" {
		t.Fatalf("loopback corrupted: %q", got)
	}
}

// TestFaultyReorder inverts delivery order: a held-back datagram is
// overtaken by one sent after it.
func TestFaultyReorder(t *testing.T) {
	vc := vclock.NewVirtual()
	ft := Faulty(newMemFabric(), FaultConfig{
		Seed:         3,
		ReorderRate:  1,
		ReorderDelay: 10 * time.Millisecond,
		Clock:        vc,
	})
	defer ft.Close()
	var got []string
	if _, err := openEach(ft, 2, func(_ Addr, data []byte) { got = append(got, string(data)) }); err != nil {
		t.Fatal(err)
	}
	ep, err := openEach(ft, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(2, []byte("first")) // held back 10ms
	ft.SetReorder(0)
	ep.Send(2, []byte("second")) // sails through
	vc.RunFor(50 * time.Millisecond)
	want := "second,first"
	if strings.Join(got, ",") != want {
		t.Fatalf("delivery order %q, want %q", strings.Join(got, ","), want)
	}
	if st := ft.Stats(); st.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", st.Reordered)
	}
}

// TestFaultyBurst drops correlated runs: one opener swallows the next
// BurstLen-1 datagrams without further RNG draws, even after the rate
// is turned off.
func TestFaultyBurst(t *testing.T) {
	ft := Faulty(newMemFabric(), FaultConfig{Seed: 5, BurstRate: 1, BurstLen: 4, Clock: vclock.NewVirtual()})
	defer ft.Close()
	var got []string
	if _, err := openEach(ft, 2, func(_ Addr, data []byte) { got = append(got, string(data)) }); err != nil {
		t.Fatal(err)
	}
	ep, err := openEach(ft, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(2, []byte("opener")) // opens the burst, dropped
	ft.SetBurst(0, 0)
	for i := 0; i < 3; i++ {
		ep.Send(2, []byte(fmt.Sprintf("swallowed-%d", i)))
	}
	ep.Send(2, []byte("survivor"))
	if strings.Join(got, ",") != "survivor" {
		t.Fatalf("delivered %q, want just the survivor", got)
	}
	st := ft.Stats()
	if st.BurstDrops != 4 || st.Dropped != 4 || st.Passed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFaultyOneWay blocks exactly one direction of a link, with no RNG
// draw, and heals it again.
func TestFaultyOneWay(t *testing.T) {
	ft := Faulty(newMemFabric(), FaultConfig{Seed: 9, Clock: vclock.NewVirtual()})
	defer ft.Close()
	var at1, at2 []string
	ep1, err := openEach(ft, 1, func(_ Addr, data []byte) { at1 = append(at1, string(data)) })
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := openEach(ft, 2, func(_ Addr, data []byte) { at2 = append(at2, string(data)) })
	if err != nil {
		t.Fatal(err)
	}
	ft.CutOneWay(1, 2)
	ep1.Send(2, []byte("blocked"))
	ep2.Send(1, []byte("reverse-ok"))
	ft.HealOneWay(1, 2)
	ep1.Send(2, []byte("healed"))
	if strings.Join(at2, ",") != "healed" {
		t.Fatalf("at 2: %q, want only the post-heal datagram", at2)
	}
	if strings.Join(at1, ",") != "reverse-ok" {
		t.Fatalf("at 1: %q, want the reverse-direction datagram", at1)
	}
	if st := ft.Stats(); st.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", st.Blocked)
	}
}

// TestFaultyZeroRatesNeutral pins the wrap-by-default contract the
// scenario driver relies on: a Faulty decorator with every rate at zero
// consumes no RNG and delivers synchronously, so wrapping a transport
// in it cannot perturb a seeded run.
func TestFaultyZeroRatesNeutral(t *testing.T) {
	ft := Faulty(newMemFabric(), FaultConfig{Seed: 123, Clock: vclock.NewVirtual()})
	defer ft.Close()
	var got []string
	if _, err := openEach(ft, 2, func(_ Addr, data []byte) { got = append(got, string(data)) }); err != nil {
		t.Fatal(err)
	}
	ep, err := openEach(ft, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ep.Send(2, []byte(fmt.Sprintf("m%d", i))) // delivered inside Send: no timers, no copies
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d, want 50", len(got))
	}
	st := ft.Stats()
	if st.Passed != 50 || st.Dropped+st.Duplicated+st.Delayed+st.Corrupted+st.Reordered+st.BurstDrops+st.Blocked != 0 {
		t.Fatalf("zero-rate decorator intervened: %+v", st)
	}
}
