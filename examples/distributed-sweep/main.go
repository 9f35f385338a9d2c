// Distributed sweep: one design-space exploration fanned across two
// actuaryd daemons plus an in-process session, merged back into
// exactly the single-process answer.
//
// The program is self-contained — it launches two daemons on
// kernel-assigned ports in this very process (each an ordinary
// server.New over its own Session, exactly what cmd/actuaryd runs),
// dials them through the typed client, and registers all three
// backends with a fleet.Coordinator in the configuration explore
// -backends runs (no health monitor, no speculation). The coordinator
// splits the grid's candidate space into shards, hands them to the
// backends, reassigns a shard if its backend dies mid-sweep, and
// merges the online aggregates as shards drain. The punchline is the
// determinism guarantee: the
// merged top-K and Pareto front are byte-identical to an unsharded
// local evaluation, which the program verifies before printing.
//
//	go run ./examples/distributed-sweep
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"

	"chipletactuary"
	"chipletactuary/client"
	"chipletactuary/fleet"
	"chipletactuary/server"
)

// daemon starts an actuaryd-style HTTP server on a kernel-assigned
// port and returns a client dialed to it plus a shutdown func.
func daemon() (client.Backend, func(), error) {
	session, err := actuary.NewSession()
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: server.New(session).Handler()}
	go func() { _ = srv.Serve(ln) }()
	c, err := client.Dial("http://" + ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("daemon listening on http://%s\n", ln.Addr())
	return c, func() { _ = srv.Close() }, nil
}

func main() {
	ctx := context.Background()

	// The §6 granularity question, as a ~1500-point grid.
	areas, err := actuary.SweepAreaRange(100, 850, 25)
	if err != nil {
		log.Fatal(err)
	}
	grid := actuary.SweepGrid{
		Name:       "granularity",
		Nodes:      []string{"5nm", "7nm"},
		Schemes:    []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD},
		AreasMM2:   areas,
		Counts:     []int{1, 2, 3, 4, 5, 6},
		Quantities: []float64{500_000, 2_000_000},
		D2D:        actuary.D2DFraction(0.10),
	}
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}

	// Two real daemons (wire protocol over HTTP) plus one in-process
	// session: the Backend interface makes them interchangeable.
	reg := fleet.NewRegistry()
	for _, name := range []string{"daemon-1", "daemon-2"} {
		b, stop, err := daemon()
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		if err := reg.Add(name, b); err != nil {
			log.Fatal(err)
		}
	}
	local, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Add("local", client.Local(local)); err != nil {
		log.Fatal(err)
	}

	coord, err := fleet.New(reg, fleet.WithShards(6), fleet.WithSpeculation(false))
	if err != nil {
		log.Fatal(err)
	}
	merged, err := coord.SweepBest(ctx, req)
	if err != nil {
		log.Fatal(err)
	}

	// The determinism guarantee, checked: an unsharded local run of the
	// same grid must retain exactly the same points.
	res := local.Evaluate(ctx, []actuary.Request{req})[0]
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	if !reflect.DeepEqual(merged.Top, res.SweepBest.Top) ||
		!reflect.DeepEqual(merged.Pareto, res.SweepBest.Pareto) {
		log.Fatal("distributed answer diverged from the single-process answer")
	}

	fmt.Printf("\n%d points explored across %d backends (%d pruned, %d deduped); top %d:\n",
		merged.Summary.Count, reg.Len(), merged.Pruned, merged.Deduped, len(merged.Top))
	for i, p := range merged.Top {
		fmt.Printf("%d. %-34s %s %-4v k=%d  $%8.2f/unit\n",
			i+1, p.ID, p.Node, p.Scheme, p.K, p.Total.Total())
	}
	fmt.Printf("\nPareto front (RE vs amortized NRE, both minimized):\n")
	for _, p := range merged.Pareto {
		fmt.Printf("   %-34s RE $%8.2f  NRE $%8.2f\n", p.ID, p.Total.RE.Total(), p.Total.NRE.Total())
	}
	fmt.Printf("\ndistributed top-K and Pareto front are byte-identical to the single-process sweep\n")
}
