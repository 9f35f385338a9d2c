package experiments

import (
	"encoding/json"
	"io"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
)

// The flow ablation's node and module area, and the robustness study's
// sample count and relative spread, as cmd/figures and the oracle run
// them.
const (
	FlowAblationNode    = "7nm"
	FlowAblationAreaMM2 = 600.0
	RobustnessSamples   = 200
	RobustnessSpread    = 0.15
)

// Oracle holds every artifact cmd/figures prints, as numbers rather
// than text: each figure's cells, the in-text claim measurements, and
// the ablation, extension and robustness rows. WriteOracle marshals it
// with encoding/json, which writes each float in its shortest
// round-trip form, so testdata/oracle.json pins every result to the
// last bit where the printed tables pin only the digits they show.
type Oracle struct {
	Fig2   Fig2Result
	Fig4   Fig4Result
	Fig5   Fig5Result
	Fig6   Fig6Result
	Fig8   Fig8Result
	Fig9   Fig9Result
	Fig10  Fig10Result
	Claims []Claim

	FlowAblation         []FlowAblationRow
	AmortizationAblation []AmortizationAblationRow
	D2DAblation          []D2DAblationRow
	BondYieldAblation    []BondYieldAblationRow
	SalvageAblation      []SalvageAblationRow

	MaturityTimeline    []MaturityRow
	ActiveInterposer    []InterposerVariantRow
	TopologyGranularity []TopologyGranularityRow
	NodeMigration       []MigrationRow

	Robustness []RobustnessRow
}

// RunOracle computes every artifact on db and params, with the
// cache-less engines cmd/figures uses.
func RunOracle(db *tech.Database, params packaging.Params) (*Oracle, error) {
	eng, err := cost.NewEngine(db, params)
	if err != nil {
		return nil, err
	}
	ev, err := explore.NewEvaluator(db, params)
	if err != nil {
		return nil, err
	}
	o := new(Oracle)
	for _, step := range []func() error{
		func() (err error) { o.Fig2, err = Fig2(db); return },
		func() (err error) { o.Fig4, err = Fig4(eng); return },
		func() (err error) { o.Fig5, err = Fig5(db, params); return },
		func() (err error) { o.Fig6, err = Fig6(ev); return },
		func() (err error) { o.Fig8, err = Fig8(ev); return },
		func() (err error) { o.Fig9, err = Fig9(ev); return },
		func() (err error) { o.Fig10, err = Fig10(ev); return },
		func() (err error) { o.Claims, err = Claims(db, params); return },
		func() (err error) {
			o.FlowAblation, err = FlowAblation(eng, FlowAblationNode, FlowAblationAreaMM2)
			return
		},
		func() (err error) { o.AmortizationAblation, err = AmortizationAblation(ev); return },
		func() (err error) { o.D2DAblation, err = D2DAblation(eng); return },
		func() (err error) { o.BondYieldAblation, err = BondYieldAblation(db, params); return },
		func() (err error) { o.SalvageAblation, err = SalvageAblation(db, params); return },
		func() (err error) { o.MaturityTimeline, err = MaturityTimeline(db, params); return },
		func() (err error) { o.ActiveInterposer, err = ActiveInterposerStudy(db, params); return },
		func() (err error) { o.TopologyGranularity, err = TopologyGranularity(eng); return },
		func() (err error) { o.NodeMigration, err = NodeMigrationStudy(db, params); return },
		func() (err error) {
			o.Robustness, err = Robustness(db, params, RobustnessSamples, RobustnessSpread)
			return
		},
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// WriteOracle computes the oracle on db and params and writes it to w
// as indented JSON, one number a line, so that a moved number shows as
// a one-line diff.
func WriteOracle(w io.Writer, db *tech.Database, params packaging.Params) error {
	o, err := RunOracle(db, params)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(o)
}
