// Command figures regenerates the paper's evaluation figures (Figures 5–8),
// the ablation table and the robustness sweeps (chaos, adversarial, churn),
// printing aligned text tables, markdown or CSV. Every flag applies to every
// -fig.
//
// Usage:
//
//	figures                  # every table at paper parameters
//	figures -fig 7           # one figure's sweep
//	figures -fig ablation    # RP-variant ablation
//	figures -fig churn       # one robustness sweep
//	figures -csv -fig 5      # machine-readable output
//	figures -packets 40      # faster, noisier runs
//	figures -parallel 1      # force the legacy serial sweep loop
//
// Sweeps fan out over -parallel workers (default: one per CPU); every cell
// is independently seeded, so the output is bit-identical at any worker
// count.
//
// The robustness sweeps (-fig chaos, -fig adversarial, -fig churn) compare
// the paper's engines against the hardened variants, including the
// cooperative coded repair engine COOP (internal/protocol/coop) with its
// symbol-plane mutation class and the epoch-fenced RP failover engine
// RP-FAILOVER (internal/protocol/rpproto) under coordinator-aimed churn.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"rmcast/internal/experiment"
	"rmcast/internal/viz"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "5|6|7|8|56|78|ablation|chaos|adversarial|churn|all")
		packets  = flag.Int("packets", 100, "data packets per run")
		reps     = flag.Int("reps", 1, "traffic-seed replicates per cell")
		seed     = flag.Uint64("seed", 2003, "base seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		chart    = flag.Bool("chart", false, "render ASCII charts beneath each table")
		svgOut   = flag.String("svg", "", "also write SVG charts, stacked, to this file")
		md       = flag.Bool("md", false, "emit markdown tables (for EXPERIMENTS.md)")
		interval = flag.Float64("interval", 50, "inter-packet interval (ms)")
		parallel = flag.Int("parallel", experiment.DefaultParallelism(),
			"sweep worker count (1 = legacy serial loop; results are identical either way)")
	)
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "figures: bad -reps %d: need at least one replicate\n", *reps)
		os.Exit(2)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "figures: bad -parallel %d: need at least one worker\n", *parallel)
		os.Exit(2)
	}

	var svgFile *os.File
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		svgFile = f
	}

	emit := func(f *experiment.Figure) {
		var err error
		switch {
		case *md:
			err = f.Markdown(os.Stdout)
		case *csv:
			err = f.CSV(os.Stdout)
		default:
			err = f.Format(os.Stdout)
			if err == nil && *chart {
				err = f.Chart(os.Stdout, 60, 14)
			}
			fmt.Println()
		}
		if err == nil && svgFile != nil {
			_, err = viz.FigureSVG(f, 720, 420).WriteTo(svgFile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
	}

	need56 := *fig == "all" || *fig == "5" || *fig == "6" || *fig == "56"
	need78 := *fig == "all" || *fig == "7" || *fig == "8" || *fig == "78"
	needAb := *fig == "all" || *fig == "ablation"
	// The robustness sweeps, in the order "all" prints them.
	robustness := []string{"chaos", "adversarial", "churn"}
	needRob := *fig == "all" || slices.Contains(robustness, *fig)
	if !need56 && !need78 && !needAb && !needRob {
		fmt.Fprintf(os.Stderr, "figures: unknown -fig %q\n", *fig)
		os.Exit(2)
	}

	if need56 {
		g := experiment.PaperFigure56()
		g.Packets, g.Replicates, g.BaseSeed, g.Interval = *packets, *reps, *seed, *interval
		g.Parallel = *parallel
		lat, bw, err := g.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		if *fig != "6" {
			emit(lat)
		}
		if *fig != "5" {
			emit(bw)
		}
	}
	if need78 {
		l := experiment.PaperFigure78()
		l.Packets, l.Replicates, l.BaseSeed, l.Interval = *packets, *reps, *seed, *interval
		l.Parallel = *parallel
		lat, bw, err := l.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		if *fig != "8" {
			emit(lat)
		}
		if *fig != "7" {
			emit(bw)
		}
	}
	if needAb {
		a := experiment.PaperAblation()
		a.Packets, a.Replicates, a.BaseSeed, a.Interval = *packets, *reps, *seed, *interval
		a.Parallel = *parallel
		lat, bw, err := a.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		emit(lat)
		emit(bw)
	}
	for _, axis := range robustness {
		if *fig != "all" && *fig != axis {
			continue
		}
		s := experiment.DefaultRobustness(axis)
		s.Packets, s.Replicates, s.BaseSeed, s.Interval = *packets, *reps, *seed, *interval
		s.Parallel = *parallel
		delivery, lat, p99, fourth, err := s.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		emit(delivery)
		emit(lat)
		emit(p99)
		emit(fourth)
	}
}
