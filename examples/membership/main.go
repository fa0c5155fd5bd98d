// Elastic membership across a protocol replacement: the GM module of
// the paper's Figure 4 depends on the atomic-broadcast service and
// keeps producing consistent views while the protocol underneath it is
// replaced. Since views drive every layer of the stack, membership is
// not just bookkeeping: evicting a member reconfigures rbcast
// destinations, rp2p peer state, fd monitors, consensus quorums and
// transport routes on every survivor, and a node added at runtime
// boots on the coherent cut its join created — delivering the exact
// totally-ordered suffix the founders deliver.
//
//	go run ./examples/membership
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/dpu"
)

func main() {
	ctx := context.Background()
	cluster, err := dpu.New(4, dpu.WithSeed(31), dpu.WithMembership())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	nodes := make([]*dpu.Node, 4)
	subs := make([]*dpu.Subscription, 4)
	for i := range nodes {
		if nodes[i], err = cluster.Node(i); err != nil {
			log.Fatal(err)
		}
		if subs[i], err = nodes[i].Subscribe(dpu.SubscribeOptions{Views: true}); err != nil {
			log.Fatal(err)
		}
	}

	showViews := func(stacks []int, what string) {
		for _, i := range stacks {
			select {
			case v := <-subs[i].Views():
				fmt.Printf("  stack %d: view %d = %v\n", i, v.ID, v.Members)
			case <-time.After(20 * time.Second):
				log.Fatalf("stack %d: no view after %s", i, what)
			}
		}
	}

	fmt.Println("member 3 is evicted (ordered through abcast/ct; every layer drops it):")
	ectx, cancel := context.WithTimeout(ctx, 20*time.Second)
	if _, err := nodes[0].Evict(ectx, 3); err != nil {
		log.Fatal(err)
	}
	cancel()
	showViews([]int{0, 1, 2, 3}, "evict") // the evicted member sees its own final view

	fmt.Println("\nreplacing the broadcast protocol under GM: ct -> sequencer")
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	ev, err := nodes[2].ChangeProtocol(sctx, dpu.ProtocolSequencer)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st, err := nodes[i].WaitForEpoch(sctx, ev.Epoch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  stack %d now on %s (epoch %d)\n", i, st.Protocol, st.Epoch)
	}
	cancel()

	fmt.Println("\na NEW node joins at runtime (ordered through abcast/seq — GM never noticed the switch):")
	jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	joiner, err := cluster.AddNode(jctx, "")
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	showViews([]int{0, 1, 2}, "join")
	st, err := joiner.Status(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  joiner is member %d, booted at epoch %d on %s, view %d = %v\n",
		joiner.Index(), st.Epoch, st.Protocol, st.ViewID, st.Members)

	// The joiner participates in the total order immediately: broadcast
	// from it and watch a founder deliver.
	fsub, err := nodes[0].Subscribe(dpu.SubscribeOptions{Deliveries: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := joiner.Broadcast(ctx, []byte("hello from the newcomer")); err != nil {
		log.Fatal(err)
	}
	select {
	case d := <-fsub.Deliveries():
		fmt.Printf("\nstack 0 delivered %q from member %d\n", d.Data, d.Origin)
	case <-time.After(20 * time.Second):
		log.Fatal("founder never delivered the newcomer's broadcast")
	}

	fmt.Println("\nviews stayed consistent across eviction, protocol update and runtime join")
}
