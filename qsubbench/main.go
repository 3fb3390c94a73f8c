// Command qsubbench is the repository's end-to-end benchmark. It runs
// the real delivery path — a root daemon in its own process, optional
// relays, and a fleet of shipped netclient sessions over loopback TCP —
// on one of three workloads, drives it open loop from a seeded
// schedule, checks that every frame arrived and every extracted answer
// is right, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also times every layer boundary it can see from outside the
// program and reports the per-layer metrics instead, dumping per-cycle
// spans to -trace-dir. The line before the result records the run:
// seed, CPUs and GOMAXPROCS of each process, Go version, source
// revision, loss and the correctness problems found. BENCHMARK.json at
// the repository root lists the workloads and metrics. Run it through
// run.py, which builds it first:
//
//	python3 qsubbench/run.py --workload fanout-direct --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if os.Getenv(rootEnv) != "" {
		os.Exit(runRoot())
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: fanout-direct, fanout-relay or churn-geo")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "total length of the measured windows")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run the seconds-long smoke size of the workload")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision to record")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "qsubbench"), "where a traced run dumps its spans")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsubbench: %v\n", err)
		os.Exit(1)
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsubbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsubbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# qsubbench %s\n%s\n", info, line)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	commit   string
	traceDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	summary summary
	info    map[string]any
}

// runDeadline bounds a whole run, set-ups included.
const runDeadline = 170 * time.Second

func nproc() int { return runtime.NumCPU() }

// rootProcs is the root process's GOMAXPROCS; the fleet process takes
// the rest of the machine.
func rootProcs() int { return max(1, nproc()/2) }

func fleetProcs() int { return max(1, nproc()-rootProcs()) }

// splitCPUs divides the CPUs this process may use between the root
// process (the first rootProcs of them) and the fleet (the rest), so the
// scheduler never stacks the two on one core for part of a run. With a
// single CPU both get it.
func splitCPUs() (root, fleet []int, err error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, nil, err
	}
	if len(cpus) < 2 {
		return cpus, cpus, nil
	}
	r := min(rootProcs(), len(cpus)-1)
	return cpus[:r], cpus[r:], nil
}

// run sets the workload's deployment up spec.Setups times; setup_s is
// the median, and so are the subscribe quantiles wherever sessions
// subscribe at set-up. The last spec.Measured set-ups are each measured
// for an equal share of the window, and every other end-to-end metric
// is the median over them, so that a burst of noise from the shared
// machine moves one deployment's figures rather than the run's.
func run(o options) (result, error) {
	sp, err := newSpec(o.workload, o.smoke)
	if err != nil {
		return result{}, err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return result{}, fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	rootCPUs, fleetCPUs, err := splitCPUs()
	if err != nil {
		return result{}, err
	}
	if err := pinProcess(fleetCPUs); err != nil {
		return result{}, fmt.Errorf("pin fleet to CPUs %v: %w", fleetCPUs, err)
	}
	runtime.GOMAXPROCS(fleetProcs())
	traced := o.trace == 1
	ticks := max(1, int(time.Duration(o.seconds)*time.Second/sp.Period)/sp.Measured)
	timer := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "qsubbench: run exceeded %s\n", runDeadline)
		os.Exit(1) // child processes exit when their stdin closes
	})
	defer timer.Stop()

	t := &tally{cpus: map[string][]int{"root": rootCPUs, "fleet": fleetCPUs}}
	for i := 0; i < sp.Setups; i++ {
		measured := i >= sp.Setups-sp.Measured
		// Each deployment draws its inputs from its own seed, derived
		// from the run's.
		seed := o.seed*16 + int64(i)
		in, err := sp.inputs(seed, ticks)
		if err != nil {
			return result{}, err
		}
		size := 1
		if measured {
			size = firstTick + ticks + 1
		}
		start := time.Now()
		// Fanout sessions sample subscribe latency at every set-up, where
		// they subscribe; churn-geo samples its joiners instead.
		d, err := setUp(sp, seed, traced, !sp.Geo, in.initial, size, rootCPUs, &hists{})
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		t.setupSeconds = append(t.setupSeconds, time.Since(start).Seconds())
		t.rootProcs = d.root.hello.GoMaxProcs
		if measured {
			err = d.measure(t, seed, in, ticks)
		}
		if err == nil && measured {
			// Peak RSS is as much the garbage collector's timing as the
			// program's, so the run reports the median over its measured
			// root processes.
			var st rootResp
			if st, err = d.stats(); err == nil {
				t.rssKB = append(t.rssKB, float64(st.MaxRSSKB))
			}
		}
		if sub := &d.h.subscribe; err == nil && sub.count() > 0 {
			t.subscribeP50 = append(t.subscribeP50, quantileMs(sub, 0.5))
			t.subscribeP99 = append(t.subscribeP99, quantileMs(sub, 0.99))
			t.subscribeSamples += sub.count()
		}
		d.tearDown()
		if err != nil {
			return result{}, fmt.Errorf("deployment %d: %w", i+1, err)
		}
	}
	return t.report(o, sp, traced)
}
