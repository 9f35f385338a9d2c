package experiments

import (
	"fmt"
	"io"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/dtod"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/report"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// Ablation studies for the model's design choices: the chip-last
// default (Eq. 5), the amortization policy ("NRE amortization
// policies" in the README), the 10% D2D assumption and the
// micro-bump bond-yield parameter.

// FlowAblationRow compares the two assembly flows of Eq. (5) for one
// configuration.
type FlowAblationRow struct {
	Scheme    packaging.Scheme
	Chiplets  int
	ChipLast  float64 // total RE per unit
	ChipFirst float64
}

// Advantage is the relative saving of chip-last over chip-first.
func (r FlowAblationRow) Advantage() float64 {
	return 1 - r.ChipLast/r.ChipFirst
}

// FlowAblation quantifies why the paper (and this library) defaults
// to chip-last: the KGD value destroyed by interposer-fab losses grows
// with die count and die cost.
func FlowAblation(eng *cost.Engine, node string, moduleAreaMM2 float64) ([]FlowAblationRow, error) {
	var rows []FlowAblationRow
	for _, scheme := range []packaging.Scheme{packaging.InFO, packaging.TwoPointFiveD} {
		for _, k := range []int{2, 3, 5} {
			var totals [2]float64
			for i, flow := range []packaging.Flow{packaging.ChipLast, packaging.ChipFirst} {
				s, err := system.PartitionEqual("f", node, moduleAreaMM2, k, scheme, dtod.Fraction{F: Fig4D2DFraction}, 1)
				if err != nil {
					return nil, err
				}
				s.Flow = flow
				b, err := eng.RE(s)
				if err != nil {
					return nil, err
				}
				totals[i] = b.Total()
			}
			rows = append(rows, FlowAblationRow{
				Scheme: scheme, Chiplets: k, ChipLast: totals[0], ChipFirst: totals[1],
			})
		}
	}
	return rows, nil
}

// RenderFlowAblation writes the assembly-flow comparison.
func RenderFlowAblation(w io.Writer, rows []FlowAblationRow) error {
	tab := report.NewTable("Ablation — chip-last vs chip-first (Eq. 5)",
		"scheme", "chiplets", "chip-last", "chip-first", "chip-last advantage")
	for _, r := range rows {
		tab.MustAddRow(r.Scheme.String(), fmt.Sprintf("%d", r.Chiplets),
			fmt.Sprintf("$%.0f", r.ChipLast), fmt.Sprintf("$%.0f", r.ChipFirst),
			fmt.Sprintf("%.1f%%", r.Advantage()*100))
	}
	return tab.WriteText(w)
}

// AmortizationAblationRow compares the two NRE amortization policies
// on one SCMS system.
type AmortizationAblationRow struct {
	Count         int
	PerSystemUnit float64 // chip NRE per unit
	PerInstance   float64
}

// AmortizationAblation reruns the Figure 8 MCM family under both
// policies. PerInstance shifts chip NRE from small systems to large
// ones; the portfolio total is conserved.
func AmortizationAblation(ev *explore.Evaluator) ([]AmortizationAblationRow, error) {
	family, err := reuse.SCMS(reuse.SCMSConfig{
		Node: Fig8Node, ModuleAreaMM2: Fig8ModuleArea, Counts: Fig8Counts,
		Scheme: packaging.MCM, QuantityPerSystem: Fig8Quantity,
		Params: ev.Cost.Params(),
	})
	if err != nil {
		return nil, err
	}
	perUnit, err := ev.Portfolio(family, nre.PerSystemUnit)
	if err != nil {
		return nil, err
	}
	perInst, err := ev.Portfolio(family, nre.PerInstance)
	if err != nil {
		return nil, err
	}
	rows := make([]AmortizationAblationRow, len(family))
	for i, s := range family {
		rows[i] = AmortizationAblationRow{
			Count:         s.DieCount(),
			PerSystemUnit: perUnit[s.Name].NRE.Chips,
			PerInstance:   perInst[s.Name].NRE.Chips,
		}
	}
	return rows, nil
}

// RenderAmortizationAblation writes the policy comparison.
func RenderAmortizationAblation(w io.Writer, rows []AmortizationAblationRow) error {
	tab := report.NewTable("Ablation — NRE amortization policy (SCMS chip NRE per unit)",
		"system", "per-system-unit", "per-instance")
	for _, r := range rows {
		tab.MustAddRow(fmt.Sprintf("%dX", r.Count),
			fmt.Sprintf("$%.2f", r.PerSystemUnit), fmt.Sprintf("$%.2f", r.PerInstance))
	}
	return tab.WriteText(w)
}

// D2DAblationRow is one point of the D2D-overhead sweep.
type D2DAblationRow struct {
	Fraction float64
	RETotal  float64 // 3-chiplet MCM RE per unit
	SoCRE    float64 // monolithic comparator (D2D-free)
}

// D2DAblation sweeps the D2D area fraction and reports where the
// interface overhead eats the partitioning gain (5nm, 800 mm², 3
// chiplets, MCM).
func D2DAblation(eng *cost.Engine) ([]D2DAblationRow, error) {
	socRE, err := eng.RE(system.Monolithic("soc", "5nm", 800, 1))
	if err != nil {
		return nil, err
	}
	var rows []D2DAblationRow
	for _, f := range []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25} {
		var d2d dtod.Overhead = dtod.Fraction{F: f}
		if f == 0 {
			d2d = dtod.None{}
		}
		s, err := system.PartitionEqual("d", "5nm", 800, 3, packaging.MCM, d2d, 1)
		if err != nil {
			return nil, err
		}
		b, err := eng.RE(s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, D2DAblationRow{Fraction: f, RETotal: b.Total(), SoCRE: socRE.Total()})
	}
	return rows, nil
}

// RenderD2DAblation writes the D2D sweep.
func RenderD2DAblation(w io.Writer, rows []D2DAblationRow) error {
	tab := report.NewTable("Ablation — D2D area fraction (5nm, 800 mm², 3-chiplet MCM)",
		"d2d fraction", "MCM RE", "SoC RE", "MCM/SoC")
	for _, r := range rows {
		tab.MustAddRow(fmt.Sprintf("%.0f%%", r.Fraction*100),
			fmt.Sprintf("$%.0f", r.RETotal), fmt.Sprintf("$%.0f", r.SoCRE),
			fmt.Sprintf("%.2f", r.RETotal/r.SoCRE))
	}
	return tab.WriteText(w)
}

// SalvageAblationRow is one point of the partial-good harvesting
// sweep on the AMD-style CCD.
type SalvageAblationRow struct {
	// Fraction is the salvageable area share of the CCD.
	Fraction float64
	// EffectiveYield is the value-weighted CCD yield.
	EffectiveYield float64
	// SystemRE is the 64-core chiplet product's RE per unit.
	SystemRE float64
}

// SalvageAblation extends the Figure 5 validation with EPYC-style
// core harvesting: a CCD whose only defects hit a disabled core still
// sells (at 75% value here). The paper models full bins only; this
// sweep shows how much of the remaining chip-defect cost harvesting
// recovers.
func SalvageAblation(db *tech.Database, params packaging.Params) ([]SalvageAblationRow, error) {
	cfg := DefaultFig5Config()
	n7, err := db.Node(cfg.CCDNode)
	if err != nil {
		return nil, err
	}
	db, err = db.Override(n7.WithDefectDensity(cfg.EarlyDefect7nm))
	if err != nil {
		return nil, err
	}
	n12, err := db.Node(cfg.IODNode)
	if err != nil {
		return nil, err
	}
	db, err = db.Override(n12.WithDefectDensity(cfg.EarlyDefect12nm))
	if err != nil {
		return nil, err
	}
	eng, err := cost.NewEngine(db, params)
	if err != nil {
		return nil, err
	}
	var rows []SalvageAblationRow
	for _, frac := range []float64{0, 0.25, 0.50, 0.75} {
		ccd := system.Chiplet{
			Name: "ccd", Node: cfg.CCDNode,
			Modules: []system.Module{{Name: "ccd-cores", AreaMM2: cfg.CCDDieAreaMM2 * (1 - cfg.D2DFraction), Scalable: true}},
			D2D:     dtod.Fraction{F: cfg.D2DFraction},
		}
		if frac > 0 {
			ccd.Salvage = &system.SalvageSpec{Fraction: frac, Value: 0.75}
		}
		iod := system.Chiplet{
			Name: "iod", Node: cfg.IODNode,
			Modules: []system.Module{{Name: "iod-logic", AreaMM2: cfg.IODDieAreaMM2 * (1 - cfg.D2DFraction), Scalable: false}},
			D2D:     dtod.Fraction{F: cfg.D2DFraction},
		}
		sys := system.System{
			Name: "epyc64", Scheme: packaging.MCM, Quantity: 1,
			Placements: []system.Placement{{Chiplet: ccd, Count: 8}, {Chiplet: iod, Count: 1}},
		}
		b, err := eng.RE(sys)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SalvageAblationRow{
			Fraction:       frac,
			EffectiveYield: b.Dies[0].Yield,
			SystemRE:       b.Total(),
		})
	}
	return rows, nil
}

// RenderSalvageAblation writes the harvesting sweep.
func RenderSalvageAblation(w io.Writer, rows []SalvageAblationRow) error {
	tab := report.NewTable("Ablation — CCD core harvesting (64-core product, salvaged bins at 75% value)",
		"salvageable fraction", "effective CCD yield", "system RE")
	for _, r := range rows {
		tab.MustAddRow(fmt.Sprintf("%.0f%%", r.Fraction*100),
			fmt.Sprintf("%.1f%%", r.EffectiveYield*100),
			fmt.Sprintf("$%.2f", r.SystemRE))
	}
	return tab.WriteText(w)
}

// BondYieldAblationRow is one point of the micro-bump yield sweep.
type BondYieldAblationRow struct {
	Yield          float64
	PackagingTotal float64
	PackagingShare float64
}

// BondYieldAblation sweeps the per-die micro-bump bond yield on a
// 3-chiplet 7nm 2.5D system, the knob the paper identifies as the
// advanced-packaging Achilles heel ("bonding defects lead to waste of
// KGDs").
func BondYieldAblation(db *tech.Database, base packaging.Params) ([]BondYieldAblationRow, error) {
	var rows []BondYieldAblationRow
	for _, y := range []float64{0.90, 0.94, 0.96, 0.98, 0.99, 0.999} {
		params := base
		params.MicroBumpBondYield = y
		eng, err := cost.NewEngine(db, params)
		if err != nil {
			return nil, err
		}
		s, err := system.PartitionEqual("b", "7nm", 600, 3, packaging.TwoPointFiveD, dtod.Fraction{F: Fig4D2DFraction}, 1)
		if err != nil {
			return nil, err
		}
		b, err := eng.RE(s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BondYieldAblationRow{
			Yield:          y,
			PackagingTotal: b.PackagingTotal(),
			PackagingShare: b.PackagingTotal() / b.Total(),
		})
	}
	return rows, nil
}

// RenderBondYieldAblation writes the bond-yield sweep.
func RenderBondYieldAblation(w io.Writer, rows []BondYieldAblationRow) error {
	tab := report.NewTable("Ablation — micro-bump bond yield (7nm, 600 mm², 3-chiplet 2.5D)",
		"bond yield", "packaging cost", "packaging share")
	for _, r := range rows {
		tab.MustAddRow(fmt.Sprintf("%.1f%%", r.Yield*100),
			fmt.Sprintf("$%.0f", r.PackagingTotal),
			fmt.Sprintf("%.0f%%", r.PackagingShare*100))
	}
	return tab.WriteText(w)
}
