// Command figures regenerates every figure of the Chiplet Actuary
// paper (DAC 2022) from the model, plus the in-text claims table and
// the ablation studies.
//
// Usage:
//
//	figures [-fig 2|4|5|6|8|9|10|claims|ablations|extensions|robustness|all] [-tech tech.json]
//	figures -json [-tech tech.json]
//
// With -json it writes every artifact as one JSON document instead of
// tables, each number in its shortest round-trip form:
// internal/experiments/testdata/oracle.json is that output on the
// built-in database.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"chipletactuary"
	"chipletactuary/internal/cost"
	"chipletactuary/internal/experiments"
	"chipletactuary/internal/explore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which artifact to regenerate: 2, 4, 5, 6, 8, 9, 10, claims, ablations, extensions, robustness or all")
	techPath := fs.String("tech", "", "optional technology database JSON (default: built-in)")
	jsonOut := fs.Bool("json", false, "write every artifact as JSON, shortest round-trip floats, instead of tables")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}

	db := actuary.DefaultTech()
	if *techPath != "" {
		var err error
		db, err = actuary.LoadTechFile(*techPath)
		if err != nil {
			return err
		}
	}
	params := actuary.DefaultPackaging()
	if *jsonOut {
		if *fig != "all" {
			return fmt.Errorf("-json writes every artifact; it does not take -fig %q", *fig)
		}
		return experiments.WriteOracle(out, db, params)
	}
	eng, err := cost.NewEngine(db, params)
	if err != nil {
		return err
	}
	ev, err := explore.NewEvaluator(db, params)
	if err != nil {
		return err
	}

	runners := map[string]func() error{
		"2": func() error {
			r, err := experiments.Fig2(db)
			if err != nil {
				return err
			}
			return r.Render(out)
		},
		"4": func() error {
			r, err := experiments.Fig4(eng)
			if err != nil {
				return err
			}
			return r.Render(out)
		},
		"5": func() error {
			r, err := experiments.Fig5(db, params)
			if err != nil {
				return err
			}
			return r.Render(out)
		},
		"6": func() error {
			r, err := experiments.Fig6(ev)
			if err != nil {
				return err
			}
			return r.Render(out)
		},
		"8": func() error {
			r, err := experiments.Fig8(ev)
			if err != nil {
				return err
			}
			return r.Render(out)
		},
		"9": func() error {
			r, err := experiments.Fig9(ev)
			if err != nil {
				return err
			}
			return r.Render(out)
		},
		"10": func() error {
			r, err := experiments.Fig10(ev)
			if err != nil {
				return err
			}
			return r.Render(out)
		},
		"extensions": func() error {
			timeline, err := experiments.MaturityTimeline(db, params)
			if err != nil {
				return err
			}
			if err := experiments.RenderMaturityTimeline(out, timeline); err != nil {
				return err
			}
			fmt.Fprintln(out)
			interposers, err := experiments.ActiveInterposerStudy(db, params)
			if err != nil {
				return err
			}
			if err := experiments.RenderActiveInterposerStudy(out, interposers); err != nil {
				return err
			}
			fmt.Fprintln(out)
			topo, err := experiments.TopologyGranularity(eng)
			if err != nil {
				return err
			}
			if err := experiments.RenderTopologyGranularity(out, topo); err != nil {
				return err
			}
			fmt.Fprintln(out)
			migration, err := experiments.NodeMigrationStudy(db, params)
			if err != nil {
				return err
			}
			return experiments.RenderNodeMigrationStudy(out, migration)
		},
		"robustness": func() error {
			rows, err := experiments.Robustness(db, params, experiments.RobustnessSamples, experiments.RobustnessSpread)
			if err != nil {
				return err
			}
			return experiments.RenderRobustness(out, rows, experiments.RobustnessSamples, experiments.RobustnessSpread)
		},
		"claims": func() error {
			claims, err := experiments.Claims(db, params)
			if err != nil {
				return err
			}
			return experiments.RenderClaims(out, claims)
		},
		"ablations": func() error {
			flow, err := experiments.FlowAblation(eng, experiments.FlowAblationNode, experiments.FlowAblationAreaMM2)
			if err != nil {
				return err
			}
			if err := experiments.RenderFlowAblation(out, flow); err != nil {
				return err
			}
			fmt.Fprintln(out)
			amort, err := experiments.AmortizationAblation(ev)
			if err != nil {
				return err
			}
			if err := experiments.RenderAmortizationAblation(out, amort); err != nil {
				return err
			}
			fmt.Fprintln(out)
			d2d, err := experiments.D2DAblation(eng)
			if err != nil {
				return err
			}
			if err := experiments.RenderD2DAblation(out, d2d); err != nil {
				return err
			}
			fmt.Fprintln(out)
			bond, err := experiments.BondYieldAblation(db, params)
			if err != nil {
				return err
			}
			if err := experiments.RenderBondYieldAblation(out, bond); err != nil {
				return err
			}
			fmt.Fprintln(out)
			salvage, err := experiments.SalvageAblation(db, params)
			if err != nil {
				return err
			}
			return experiments.RenderSalvageAblation(out, salvage)
		},
	}

	if *fig == "all" {
		for _, key := range []string{"2", "4", "5", "6", "8", "9", "10", "claims", "ablations", "extensions", "robustness"} {
			fmt.Fprintf(out, "==== %s ====\n", label(key))
			if err := runners[key](); err != nil {
				return fmt.Errorf("%s: %w", label(key), err)
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	runner, ok := runners[*fig]
	if !ok {
		return fmt.Errorf("unknown -fig %q (want 2, 4, 5, 6, 8, 9, 10, claims, ablations, extensions, robustness or all)", *fig)
	}
	return runner()
}

func label(key string) string {
	switch key {
	case "claims":
		return "In-text claims"
	case "ablations":
		return "Ablations"
	case "extensions":
		return "Extensions"
	case "robustness":
		return "Robustness"
	default:
		return "Figure " + key
	}
}
