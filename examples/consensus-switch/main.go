// Consensus replacement — the paper's future-work extension ([16],
// "Dynamic update of distributed agreement protocols") realised through
// the DPU mechanism itself: a CT atomic-broadcast variant is registered
// that requires its *own* consensus service (with a different
// coordinator policy), and switching to it makes the create_module
// recursion of Algorithm 1 instantiate the new consensus protocol as a
// required service. The old epoch keeps draining on the old consensus
// protocol; the new epoch runs entirely on the new one.
//
// The switch itself is one ChangeProtocolAll call: it returns only when
// every stack in this process has completed the replacement.
//
//	go run ./examples/consensus-switch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/dpu"
	"repro/internal/consensus"
)

func main() {
	ctx := context.Background()
	cluster, err := dpu.New(3,
		dpu.WithSeed(41),
		// Registers protocol "abcast/ct-fixed": CT atomic broadcast on a
		// separate consensus module with a leader-biased coordinator.
		dpu.WithConsensusVariant("abcast/ct-fixed", consensus.Fixed),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	nodes := make([]*dpu.Node, 3)
	subs := make([]*dpu.Subscription, 3)
	for i := range nodes {
		if nodes[i], err = cluster.Node(i); err != nil {
			log.Fatal(err)
		}
		if subs[i], err = nodes[i].Subscribe(dpu.SubscribeOptions{Deliveries: true}); err != nil {
			log.Fatal(err)
		}
	}

	collect := func(k int) [][]string {
		out := make([][]string, 3)
		for i := 0; i < 3; i++ {
			for len(out[i]) < k {
				d := <-subs[i].Deliveries()
				out[i] = append(out[i], fmt.Sprintf("%d:%s", d.Origin, d.Data))
			}
		}
		return out
	}

	fmt.Println("phase 1: rotating-coordinator consensus underneath abcast/ct")
	for i := 0; i < 5; i++ {
		if err := nodes[i%3].Broadcast(ctx, []byte(fmt.Sprintf("rotating-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	collect(5)

	fmt.Println("phase 2: switching the agreement substrate on the fly")
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	ev, err := cluster.ChangeProtocolAll(sctx, "abcast/ct-fixed")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st, err := nodes[i].WaitForEpoch(sctx, ev.Epoch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  stack %d: new module %s at epoch %d (its consensus service was\n"+
			"           created by create_module recursion; the old one keeps draining)\n",
			i, st.Protocol, st.Epoch)
	}
	cancel()

	fmt.Println("phase 3: leader-biased consensus underneath abcast/ct-fixed")
	for i := 0; i < 5; i++ {
		if err := nodes[i%3].Broadcast(ctx, []byte(fmt.Sprintf("fixed-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	seqs := collect(5)
	for i := 1; i < 3; i++ {
		for k := range seqs[0] {
			if seqs[i][k] != seqs[0][k] {
				log.Fatalf("stack %d diverged at %d: %s vs %s", i, k, seqs[i][k], seqs[0][k])
			}
		}
	}
	st, err := nodes[0].Status(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal order preserved across the agreement-protocol replacement; "+
		"final protocol %s (epoch %d)\n", st.Protocol, st.Epoch)
}
