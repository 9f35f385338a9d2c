package actuary_test

import (
	"context"
	"fmt"
	"log"

	"chipletactuary"
)

// A whole design decision as one concurrent batch: both candidates'
// totals and the pay-back point, answered in input order.
func ExampleSession_Evaluate() {
	s, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	soc := actuary.Monolithic("soc", "5nm", 800, 2_000_000)
	mcm, err := actuary.PartitionEqual("mcm", "5nm", 800, 2,
		actuary.MCM, actuary.D2DFraction(0.10), 2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	results := s.Evaluate(context.Background(), []actuary.Request{
		{ID: "soc", Question: actuary.QuestionTotalCost, System: soc},
		{ID: "mcm", Question: actuary.QuestionTotalCost, System: mcm},
		{ID: "payback", Question: actuary.QuestionCrossoverQuantity,
			Incumbent: soc, Challenger: mcm},
	})
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	fmt.Printf("MCM cheaper at 2M units: %v\n",
		results[1].TotalCost.Total() < results[0].TotalCost.Total())
	fmt.Printf("pays back inside the paper's (500k, 2M] bracket: %v\n",
		results[2].Quantity > 500_000 && results[2].Quantity <= 2_000_000)
	// Output:
	// MCM cheaper at 2M units: true
	// pays back inside the paper's (500k, 2M] bracket: true
}

// One bad request never sinks the batch: failures come back as
// structured errors with a classification code.
func ExampleSession_Evaluate_errorIsolation() {
	s, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	good := actuary.Monolithic("good", "7nm", 100, 1)
	bad := actuary.Monolithic("bad", "1nm-imaginary", 100, 1)
	results := s.Evaluate(context.Background(), []actuary.Request{
		{Question: actuary.QuestionRE, System: good},
		{Question: actuary.QuestionRE, System: bad},
	})
	fmt.Printf("good request ok: %v\n", results[0].Err == nil)
	if ae, ok := actuary.AsError(results[1].Err); ok {
		fmt.Printf("bad request code: %v\n", ae.Code)
	}
	// Output:
	// good request ok: true
	// bad request code: unknown-node
}

// The basic question: monolithic SoC or two chiplets?
func Example() {
	s, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	soc := actuary.Monolithic("soc", "5nm", 800, 2_000_000)
	mcm, err := actuary.PartitionEqual("mcm", "5nm", 800, 2,
		actuary.MCM, actuary.D2DFraction(0.10), 2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	results := s.Evaluate(context.Background(), []actuary.Request{
		{Question: actuary.QuestionTotalCost, System: soc, Policy: actuary.PerSystemUnit},
		{Question: actuary.QuestionTotalCost, System: mcm, Policy: actuary.PerSystemUnit},
	})
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	socTC, mcmTC := results[0].TotalCost, results[1].TotalCost
	fmt.Printf("at 2M units the 2-chiplet MCM is cheaper: %v\n", mcmTC.Total() < socTC.Total())
	// Output:
	// at 2M units the 2-chiplet MCM is cheaper: true
}

// RE breakdown of a single system, following the paper's §3.2 split.
func ExampleSession_Evaluate_recurringCost() {
	s, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := actuary.PartitionEqual("demo", "7nm", 600, 3,
		actuary.TwoPointFiveD, actuary.D2DFraction(0.10), 1)
	if err != nil {
		log.Fatal(err)
	}
	r := s.Evaluate(context.Background(), []actuary.Request{{Question: actuary.QuestionRE, System: sys}})[0]
	if r.Err != nil {
		log.Fatal(r.Err)
	}
	re := r.RE
	fmt.Printf("five components sum to the total: %v\n",
		re.RawChips+re.ChipDefects+re.RawPackage+re.PackageDefects+re.WastedKGD == re.Total())
	fmt.Printf("2.5D packaging is a heavy line item: %v\n", re.PackagingTotal() > re.Total()/4)
	// Output:
	// five components sum to the total: true
	// 2.5D packaging is a heavy line item: true
}

// Chiplet reuse across a product family (the §5.1 SCMS scheme).
func ExampleSession_Portfolio() {
	s, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	family, err := actuary.SCMS(actuary.SCMSConfig{
		Node: "7nm", ModuleAreaMM2: 200, Counts: []int{1, 2, 4},
		Scheme: actuary.MCM, QuantityPerSystem: 500_000,
		Params: s.Packaging(),
	})
	if err != nil {
		log.Fatal(err)
	}
	costs, err := s.Portfolio(family, actuary.PerSystemUnit)
	if err != nil {
		log.Fatal(err)
	}
	// One chip design amortizes over all three systems, so every
	// member bears the same per-unit chip NRE.
	oneX := costs[family[0].Name].NRE.Chips
	fourX := costs[family[2].Name].NRE.Chips
	fmt.Printf("chip NRE shared equally: %v\n", oneX == fourX)
	// Output:
	// chip NRE shared equally: true
}

// Where does the multi-chip design start paying back?
func ExampleSession_Evaluate_crossoverQuantity() {
	s, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	soc := actuary.Monolithic("soc", "5nm", 800, 1)
	mcm, err := actuary.PartitionEqual("mcm", "5nm", 800, 2,
		actuary.MCM, actuary.D2DFraction(0.10), 1)
	if err != nil {
		log.Fatal(err)
	}
	r := s.Evaluate(context.Background(), []actuary.Request{{Question: actuary.QuestionCrossoverQuantity,
		Incumbent: soc, Challenger: mcm}})[0]
	if r.Err != nil {
		log.Fatal(r.Err)
	}
	q := r.Quantity
	fmt.Printf("pays back within the paper's (500k, 2M] bracket: %v\n",
		q > 500_000 && q <= 2_000_000)
	// Output:
	// pays back within the paper's (500k, 2M] bracket: true
}
