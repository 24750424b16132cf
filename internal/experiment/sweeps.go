package experiment

// GroupSizeSweep reproduces Figures 5 and 6: the three protocols across
// growing network sizes at fixed loss.
type GroupSizeSweep struct {
	// Sizes are the backbone router counts (the paper: 50…600).
	Sizes []int
	// Loss is the per-link loss probability (the paper: 5%).
	Loss float64
	// Protocols to compare; nil means PaperProtocols.
	Protocols []string
	// Packets, Interval configure each run's data stream.
	Packets  int
	Interval float64
	// Replicates averages this many traffic seeds per cell (topology held
	// fixed per size, as in the paper). Minimum 1.
	Replicates int
	// BaseSeed derives all topology and traffic seeds.
	BaseSeed uint64
	// Parallel is the worker count for the sweep grid; <= 1 runs the legacy
	// serial loop. Any value produces bit-identical figures (every cell is
	// independently seeded); see parallel.go.
	Parallel int
}

// PaperFigure56 returns the sweep matching the paper's §5.2 setup:
// n ∈ {50,100,200,300,400,500,600}, p = 5%.
func PaperFigure56() GroupSizeSweep {
	return GroupSizeSweep{
		Sizes:      []int{50, 100, 200, 300, 400, 500, 600},
		Loss:       0.05,
		Packets:    100,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
	}
}

// Run executes the sweep and returns the latency figure (Figure 5) and the
// bandwidth figure (Figure 6).
func (g GroupSizeSweep) Run() (latency, bandwidth *Figure, err error) {
	gr := g.grid()
	if err := gr.run(g.Parallel); err != nil {
		return nil, nil, err
	}
	// Every protocol of a row runs on the row's one topology, so any point's
	// client count is the row's x.
	if len(gr.protocols) > 0 {
		for i, row := range gr.rows {
			gr.rows[i].X = float64(row.Points[gr.protocols[0]].Clients)
		}
	}
	return gr.figure("Figure 5: average recovery latency per packet recovered", "latency (ms)", "latency"),
		gr.figure("Figure 6: average bandwidth usage per packet recovered", "bandwidth (hops)", "bandwidth"),
		nil
}

// grid lays out the sweep's cells: one topology per size.
func (g GroupSizeSweep) grid() *grid {
	sizes := make([]float64, len(g.Sizes))
	for i, n := range g.Sizes {
		sizes[i] = float64(n)
	}
	return newGrid("clients", g.Protocols, PaperProtocols, sizes, "n=%.0f", g.Replicates,
		func(row, rep int) RunSpec {
			return RunSpec{
				Routers:  g.Sizes[row],
				Loss:     g.Loss,
				Packets:  g.Packets,
				Interval: g.Interval,
				TopoSeed: g.BaseSeed + uint64(row)*1000,
				SimSeed:  g.BaseSeed + uint64(row)*1000 + uint64(rep) + 1,
			}
		})
}

// LossSweep reproduces Figures 7 and 8: a fixed topology across loss rates.
type LossSweep struct {
	// Routers is the fixed backbone size (the paper: 500).
	Routers int
	// LossPcts are the per-link loss probabilities in percent
	// (the paper: 2,4,…,20).
	LossPcts []float64
	// Protocols to compare; nil means PaperProtocols.
	Protocols []string
	Packets   int
	Interval  float64
	// Replicates averages this many traffic seeds per cell.
	Replicates int
	BaseSeed   uint64
	// Parallel is the worker count for the sweep grid; <= 1 runs the legacy
	// serial loop (see parallel.go).
	Parallel int
}

// PaperFigure78 returns the sweep matching the paper's setup: n=500,
// p ∈ {2,4,…,20}%.
func PaperFigure78() LossSweep {
	return LossSweep{
		Routers:    500,
		LossPcts:   []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		Packets:    100,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
	}
}

// Run executes the sweep and returns the latency figure (Figure 7) and the
// bandwidth figure (Figure 8).
func (l LossSweep) Run() (latency, bandwidth *Figure, err error) {
	gr := l.grid()
	if err := gr.run(l.Parallel); err != nil {
		return nil, nil, err
	}
	return gr.figure("Figure 7: average delay per packet recovered vs loss", "latency (ms)", "latency"),
		gr.figure("Figure 8: average bandwidth usage per packet recovered vs loss", "bandwidth (hops)", "bandwidth"),
		nil
}

// grid lays out the sweep's cells, all on one topology (the paper reports
// n=500 generating k=208 clients once).
func (l LossSweep) grid() *grid {
	return newGrid("per-link loss (%)", l.Protocols, PaperProtocols, l.LossPcts, "p=%g%%", l.Replicates,
		func(row, rep int) RunSpec {
			return RunSpec{
				Routers:  l.Routers,
				Loss:     l.LossPcts[row] / 100,
				Packets:  l.Packets,
				Interval: l.Interval,
				TopoSeed: l.BaseSeed,
				SimSeed:  l.BaseSeed + uint64(row)*100 + uint64(rep) + 1,
			}
		})
}

// AblationSweep compares RP variants (and the source floor) on one
// topology/loss setting — DESIGN.md experiment E7.
type AblationSweep struct {
	Routers    int
	LossPcts   []float64
	Packets    int
	Interval   float64
	Replicates int
	BaseSeed   uint64
	// Parallel is the worker count for the sweep grid (see parallel.go).
	Parallel int
}

// PaperAblation returns the default ablation: n=300, p ∈ {5, 15}%.
func PaperAblation() AblationSweep {
	return AblationSweep{
		Routers:    300,
		LossPcts:   []float64{5, 15},
		Packets:    100,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
	}
}

// Run executes the ablation and returns latency and bandwidth figures over
// the RP variants.
func (a AblationSweep) Run() (latency, bandwidth *Figure, err error) {
	latency, bandwidth, err = a.lossSweep().Run()
	if err != nil {
		return nil, nil, err
	}
	latency.Name = "Ablation: RP variants, latency"
	bandwidth.Name = "Ablation: RP variants, bandwidth"
	return latency, bandwidth, nil
}

// lossSweep is the ablation as a loss sweep over AblationProtocols.
func (a AblationSweep) lossSweep() LossSweep {
	return LossSweep{
		Routers:    a.Routers,
		LossPcts:   a.LossPcts,
		Protocols:  AblationProtocols,
		Packets:    a.Packets,
		Interval:   a.Interval,
		Replicates: a.Replicates,
		BaseSeed:   a.BaseSeed,
		Parallel:   a.Parallel,
	}
}
