// Quickstart: three stacks, a totally-ordered broadcast stream, and a
// live protocol replacement in the middle of it — driven through the
// context-first Node API, so the switch is a confirmed event rather
// than a fire-and-forget request.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/dpu"
)

func main() {
	ctx := context.Background()

	// Three protocol stacks over a simulated switched LAN, running the
	// Chandra-Toueg atomic broadcast (the paper's Figure 4 stack).
	cluster, err := dpu.New(3, dpu.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Node handles are validated once; a bad index would come back as
	// dpu.ErrOutOfRange instead of a panic.
	nodes := make([]*dpu.Node, 3)
	for i := range nodes {
		if nodes[i], err = cluster.Node(i); err != nil {
			log.Fatal(err)
		}
	}
	// Typed, independently-buffered delivery streams for two observers.
	sub1, err := nodes[1].Subscribe(dpu.SubscribeOptions{Deliveries: true})
	if err != nil {
		log.Fatal(err)
	}
	sub2, err := nodes[2].Subscribe(dpu.SubscribeOptions{Deliveries: true})
	if err != nil {
		log.Fatal(err)
	}

	// Broadcast a few messages from different stacks.
	for i := 0; i < 5; i++ {
		if err := nodes[i%3].Broadcast(ctx, []byte(fmt.Sprintf("before-%d", i))); err != nil {
			log.Fatal(err)
		}
	}

	// Replace the protocol ON THE FLY: no stack stops serving, and the
	// total order spans the replacement. ChangeProtocol blocks until
	// stack 0 has completed the switch (Algorithm 1's seqNumber moment)
	// and returns the completed event.
	ev, err := nodes[0].ChangeProtocol(ctx, dpu.ProtocolSequencer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stack 0 switched to %s at epoch %d, reissuing %d in-flight messages\n\n",
		ev.Protocol, ev.Epoch, ev.Reissued)

	for i := 0; i < 5; i++ {
		if err := nodes[i%3].Broadcast(ctx, []byte(fmt.Sprintf("after-%d", i))); err != nil {
			log.Fatal(err)
		}
	}

	// Every stack observes the same sequence. Print stack 1's view and
	// verify stack 2 agrees.
	var seq1, seq2 []string
	for len(seq1) < 10 {
		d := <-sub1.Deliveries()
		seq1 = append(seq1, fmt.Sprintf("stack%d:%s", d.Origin, d.Data))
	}
	for len(seq2) < 10 {
		d := <-sub2.Deliveries()
		seq2 = append(seq2, fmt.Sprintf("stack%d:%s", d.Origin, d.Data))
	}
	fmt.Println("deliveries in total order (as seen by stack 1):")
	for i, s := range seq1 {
		marker := ""
		if seq2[i] != s {
			marker = "   <-- DIVERGED (bug!)"
		}
		fmt.Printf("  %2d. %s%s\n", i+1, s, marker)
	}

	// The other stacks confirm the same epoch deterministically — no
	// sleeping, no polling.
	st, err := nodes[1].WaitForEpoch(ctx, ev.Epoch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstack 1 confirms: protocol=%s epoch=%d\n", st.Protocol, st.Epoch)
}
