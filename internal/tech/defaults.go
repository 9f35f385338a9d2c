package tech

// Default parameter table.
//
// Sources and reasoning:
//
//   - Defect densities and cluster parameters are the paper's own
//     (Figure 2 legend): 3nm 0.20, 5nm 0.11, 7nm 0.09, 14nm 0.08 with
//     c=10; RDL 0.05/c=3; silicon interposer 0.06/c=6. Densities for
//     nodes the legend omits (10/12/28/65nm) are interpolated between
//     neighbours; 12nm's early-life value 0.12 (used by Figure 5) is
//     applied as an override in the experiment, matching the paper.
//   - Wafer prices follow the CSET "AI Chips" report the paper cites:
//     5nm ≈ $16,988, 7nm ≈ $9,346, 10nm ≈ $5,992, 14nm ≈ $3,984,
//     28nm ≈ $2,367, 65nm ≈ $1,937; 3nm extrapolated, 12nm set
//     slightly below 14nm (GF pricing). 14nm is given the paper's
//     companion figure $3,677 used in some editions; the experiments
//     only depend on the ratio structure.
//   - Mask-set / fixed NRE and the design-cost factors Km/Kc follow
//     the widely cited IBS design-cost ladder (a ~$540M 5nm chip
//     design, ~$300M 7nm, ~$175M 16/14nm, …) apportioned between
//     module design (Km), chip-level physical design + system
//     verification (Kc) and per-tapeout fixed cost (masks + IP).
//   - D2D NRE is a per-node one-time interface design cost in the
//     range industry reports give for a production-hardened PHY.
//   - Bump + sort costs are small per-mm² adders; the paper folds
//     them in without itemizing (§3.2).
//
// The RDL and SI rows describe packaging silicon: their "wafer cost"
// is the processed fan-out RDL wafer (~$1.2k) and the TSV silicon
// interposer wafer (65nm-class plus TSV, ~$2.6k).

// Default returns the built-in technology database.
func Default() *Database {
	db, err := NewDatabase(
		Node{Name: "3nm", DefectDensity: 0.20, Cluster: 10, WaferCost: 20000,
			BumpCostPerMM2: 0.02, SortCostPerMM2: 0.02,
			Km: 900_000, Kc: 300_000, FixedChipNRE: 100_000_000, D2DNRE: 25_000_000},
		Node{Name: "5nm", DefectDensity: 0.11, Cluster: 10, WaferCost: 16988,
			BumpCostPerMM2: 0.02, SortCostPerMM2: 0.02,
			Km: 650_000, Kc: 220_000, FixedChipNRE: 80_000_000, D2DNRE: 20_000_000},
		Node{Name: "7nm", DefectDensity: 0.09, Cluster: 10, WaferCost: 9346,
			BumpCostPerMM2: 0.015, SortCostPerMM2: 0.015,
			Km: 400_000, Kc: 130_000, FixedChipNRE: 45_000_000, D2DNRE: 12_000_000},
		Node{Name: "10nm", DefectDensity: 0.10, Cluster: 10, WaferCost: 5992,
			BumpCostPerMM2: 0.012, SortCostPerMM2: 0.012,
			Km: 250_000, Kc: 90_000, FixedChipNRE: 25_000_000, D2DNRE: 8_000_000},
		Node{Name: "12nm", DefectDensity: 0.09, Cluster: 10, WaferCost: 3900,
			BumpCostPerMM2: 0.01, SortCostPerMM2: 0.01,
			Km: 130_000, Kc: 48_000, FixedChipNRE: 12_000_000, D2DNRE: 4_000_000},
		Node{Name: "14nm", DefectDensity: 0.08, Cluster: 10, WaferCost: 3677,
			BumpCostPerMM2: 0.01, SortCostPerMM2: 0.01,
			Km: 110_000, Kc: 40_000, FixedChipNRE: 10_000_000, D2DNRE: 3_500_000},
		Node{Name: "28nm", DefectDensity: 0.07, Cluster: 10, WaferCost: 2367,
			BumpCostPerMM2: 0.008, SortCostPerMM2: 0.008,
			Km: 50_000, Kc: 18_000, FixedChipNRE: 3_000_000, D2DNRE: 1_500_000},
		Node{Name: "65nm", DefectDensity: 0.05, Cluster: 10, WaferCost: 1937,
			BumpCostPerMM2: 0.006, SortCostPerMM2: 0.006,
			Km: 20_000, Kc: 8_000, FixedChipNRE: 1_000_000, D2DNRE: 800_000},
		// Packaging silicon. Wafer prices cover the full fan-out RDL
		// build-up and the TSV interposer flow respectively, which is
		// why they exceed a bare 65nm wafer.
		Node{Name: "RDL", DefectDensity: 0.05, Cluster: 3, WaferCost: 3500,
			BumpCostPerMM2: 0.005, SortCostPerMM2: 0,
			Km: 0, Kc: 2_000, FixedChipNRE: 1_500_000, D2DNRE: 0, Interposer: true},
		Node{Name: "SI", DefectDensity: 0.06, Cluster: 6, WaferCost: 4000,
			BumpCostPerMM2: 0.005, SortCostPerMM2: 0,
			Km: 0, Kc: 4_000, FixedChipNRE: 3_000_000, D2DNRE: 0, Interposer: true},
	)
	if err != nil {
		// The built-in table is a compile-time constant in spirit;
		// failing to validate is a programming error.
		panic(err)
	}
	return db
}
