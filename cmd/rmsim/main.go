// Command rmsim runs one reliable-multicast recovery simulation and prints
// the per-protocol metrics, exactly as the experiment harness measures them
// for the paper's figures, or, with -scaling, the large-n planning tier.
//
// Usage:
//
//	rmsim -routers 500 -loss 0.05 -protocol RP
//	rmsim -routers 200 -loss 0.10 -protocol all -packets 200
//	rmsim -scaling -sizes 1000,5000 -simworkers 2
//
// With -protocol all the per-protocol runs execute on -parallel workers
// (default: one per CPU); each run is independently seeded so the printed
// rows are identical at any worker count. -trace forces serial execution so
// the event trace stays a single ordered stream. The figure sweeps (Figures
// 5–8, the ablation and the chaos, adversarial and churn sweeps) are
// cmd/figures'.
//
// A flag the chosen mode does not read is refused (exit 2): a single-run
// flag with -scaling, or -sizes without it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"rmcast/internal/experiment"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/route"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

func main() {
	var (
		routers  = flag.Int("routers", 200, "backbone router count m")
		loss     = flag.Float64("loss", 0.05, "per-link loss probability")
		proto    = flag.String("protocol", "RP", "protocol name or 'all' (see rmsim -list)")
		packets  = flag.Int("packets", 100, "data packets to multicast")
		interval = flag.Float64("interval", 50, "inter-packet interval (ms)")
		topoSeed = flag.Uint64("toposeed", 1, "topology seed")
		simSeed  = flag.Uint64("seed", 1, "traffic/timer seed")
		list     = flag.Bool("list", false, "list protocol names and exit")
		traceOut = flag.String("trace", "", "write a structured event trace to this file ('-' for stderr)")
		jitter   = flag.Float64("jitter", 0, "per-traversal delay jitter fraction")
		gapDet   = flag.Bool("gapdetect", false, "use sequence-gap loss detection instead of the idealised model")
		lossyRec = flag.Bool("lossyrecovery", false, "subject recovery traffic to link loss")
		asJSON   = flag.Bool("json", false, "emit per-protocol results (or, with -scaling, the cells) as JSON")
		scaling  = flag.Bool("scaling", false,
			"run the large-n planning scaling tier instead of a simulation: tree-aggregated batch planner vs the O(N²) scan on tree-only topologies")
		sizes = flag.String("sizes", "",
			"comma-separated client counts for -scaling (default 1000,5000,20000,50000)")
		parallel = flag.Int("parallel", experiment.DefaultParallelism(),
			"worker count for multi-protocol runs (1 = serial; output is identical either way)")
		simWorkers = flag.Int("simworkers", 0,
			"shard a single run across this many workers (conservative parallel engine; 0/1 = serial, output is bit-identical either way; ineligible configs fall back to serial). With -scaling, adds a serial-vs-sharded simulation phase per cell")
		domainSize = flag.Int("domainsize", 0,
			"clients per recovery domain of a sharded run, one engine per domain (requires -simworkers >= 2; 0 = max(8, ⌈clients/8⌉), i.e. 2 to 8 domains; the domain count never depends on the worker count, so output stays bit-identical). Also applies to -scaling's simulation phase")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	// The flags only a single run reads; -sizes is the one flag only
	// -scaling reads. Every other flag means the same in both modes.
	singleRun := []string{"routers", "loss", "protocol", "packets", "interval", "toposeed",
		"trace", "jitter", "gapdetect", "lossyrecovery", "parallel"}
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *scaling && slices.Contains(singleRun, f.Name):
			fmt.Fprintf(os.Stderr, "rmsim: -%s is a single-run flag; -scaling does not read it\n", f.Name)
			os.Exit(2)
		case !*scaling && f.Name == "sizes":
			fmt.Fprintln(os.Stderr, "rmsim: -sizes is read only with -scaling")
			os.Exit(2)
		}
	})
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "rmsim: bad -parallel %d: need at least one worker\n", *parallel)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, p := range experiment.Engines() {
			fmt.Println(p)
		}
		return
	}

	if *scaling {
		sweep := experiment.DefaultScaling()
		sweep.BaseSeed = *simSeed
		sweep.SimWorkers = *simWorkers
		sweep.DomainClients = *domainSize
		if *sizes != "" {
			sweep.Sizes = nil
			for _, s := range strings.Split(*sizes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					fmt.Fprintf(os.Stderr, "rmsim: bad -sizes entry %q\n", s)
					os.Exit(2)
				}
				sweep.Sizes = append(sweep.Sizes, n)
			}
		}
		report, err := sweep.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			err = enc.Encode(report)
		} else {
			err = report.Format(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	protos := []string{*proto}
	if *proto == "all" {
		protos = experiment.PaperProtocols
	}

	// tracer keeps the first failed write; traceFile is closed, and its
	// error checked, once the runs are done.
	var (
		tracer    *trace.Writer
		traceFile *os.File
	)
	if *traceOut != "" {
		w := os.Stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
				os.Exit(1)
			}
			traceFile, w = f, f
		}
		tracer = trace.NewWriter(w)
	}

	type jsonRow struct {
		Protocol   string  `json:"protocol"`
		Clients    int     `json:"clients"`
		Losses     int64   `json:"losses"`
		Recovered  int64   `json:"recovered"`
		LatencyMs  float64 `json:"latencyMs"`
		P95Ms      float64 `json:"p95Ms"`
		RepairHops float64 `json:"repairHopsPerRecovery"`
		ReqHops    float64 `json:"requestHopsPerRecovery"`
		Duplicates int64   `json:"duplicates"`
		Events     uint64  `json:"events"`
	}

	// Every protocol runs on one network: the topology, its tree and its
	// routing tables are built once, and the runs only read them. Each run
	// has its own session from the same seeds, so they fan out to workers;
	// results gather by index and print in the requested order. Tracing
	// shares one writer, so it forces the serial path.
	topo, err := topology.Standard(*routers, *loss, *topoSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
		os.Exit(1)
	}
	tree, err := mtree.Build(topo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
		os.Exit(1)
	}
	routes := route.Build(topo)
	runOne := func(p string) (*protocol.Result, error) {
		eng, err := experiment.NewEngine(p)
		if err != nil {
			return nil, err
		}
		cfg := protocol.Config{
			Packets: *packets, Interval: *interval,
			Jitter: *jitter, LossyRecovery: *lossyRec,
			SimWorkers: *simWorkers, DomainClients: *domainSize,
		}
		if *gapDet {
			cfg.Detection = protocol.DetectGap
		}
		sess, err := protocol.NewSessionPrebuilt(topo, tree, eng, cfg, *simSeed, routes)
		if err != nil {
			return nil, err
		}
		if tracer != nil {
			sess.Trace = tracer
		}
		res := sess.Run()
		if err := experiment.Check(res); err != nil {
			return nil, fmt.Errorf("%s %w", p, err)
		}
		return res, nil
	}

	workers := *parallel
	if tracer != nil {
		workers = 1
	}
	results := make([]*protocol.Result, len(protos))
	if _, err := experiment.Each(len(protos), workers, func(i int) (err error) {
		results[i], err = runOne(protos[i])
		return err
	}); err != nil {
		fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
		os.Exit(1)
	}
	if tracer != nil {
		err := tracer.Err()
		if traceFile != nil {
			if cerr := traceFile.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: -trace: %v\n", err)
			os.Exit(1)
		}
	}

	// Sharding was requested but some run stayed one shard (serial): say
	// why, so a surprising lack of speed-up is explainable.
	if *simWorkers >= 2 {
		for i, p := range protos {
			res := results[i]
			if !res.Sharded && res.SerialReason != "" {
				fmt.Fprintf(os.Stderr, "rmsim: %s ran serial: %s\n", p, res.SerialReason)
			}
			if res.Domains > 0 {
				fmt.Fprintf(os.Stderr, "rmsim: %s ran in %d recovery domains (~%d clients each)\n",
					p, res.Domains, protocol.DomainSize(res.Clients, *domainSize))
			}
		}
	}

	var jsonRows []jsonRow
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\tclients\tlosses\trecovered\tlatency(ms)\tp95(ms)\trepair bw(hops)\treq bw(hops)\tdup\tevents")
	for i, p := range protos {
		res := results[i]
		if *asJSON {
			jsonRows = append(jsonRows, jsonRow{
				Protocol: p, Clients: res.Clients,
				Losses: res.Stats.Losses, Recovered: res.Stats.Recoveries,
				LatencyMs: res.AvgLatency(), P95Ms: res.LatencyQuantile(0.95),
				RepairHops: res.BandwidthPerRecovery(),
				ReqHops:    res.RequestHopsPerRecovery(),
				Duplicates: res.Stats.Duplicates, Events: res.Events,
			})
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%d\n",
			p, res.Clients, res.Stats.Losses, res.Stats.Recoveries,
			res.AvgLatency(), res.LatencyQuantile(0.95), res.BandwidthPerRecovery(),
			res.RequestHopsPerRecovery(), res.Stats.Duplicates, res.Events)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonRows); err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
		os.Exit(1)
	}
}
