// Command benchjson converts `go test -bench` output read on stdin into
// a JSON document, so benchmark runs can be committed and diffed (see
// `make bench-save`), and compares two such documents for regressions
// (see `make bench-compare`).
//
// Usage:
//
//	go test -bench 'PairMerge' -benchmem | benchjson -o BENCH_solvers.json
//	benchjson compare OLD.json NEW.json [-threshold 0.20]
//
// Five suites are committed: BENCH_solvers.json (solver engine),
// BENCH_chanalloc.json (channel allocation), BENCH_publish.json (the
// dissemination engine — publish, client extraction and wire encoding,
// concatenated from the server, client and wire packages),
// BENCH_sharding.json (the sharded planning pipeline, including the
// 100k-subscription acceptance rows) and BENCH_fanout.json (the
// encode-once fan-out load harness: qsubload emits bench-compatible
// lines from real-socket runs, direct and through a relay tier).
//
// Standard benchmark lines parse into name, iterations, ns/op and — when
// -benchmem is on — B/op and allocs/op; any custom b.ReportMetric units
// land in the metrics map. Non-benchmark lines pass through to stderr so
// failures stay visible in a pipeline.
//
// compare matches benchmarks by name and flags any whose time/op or
// allocs/op grew by more than the threshold (default 20%), exiting
// nonzero when a regression is found. Benchmarks present on only one
// side are reported but never fail the comparison.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Document is the saved file: environment header plus the results. The
// run metadata (toolchain, parallelism, host commit) makes committed
// baselines interpretable across machines; compare matches benchmarks
// by name only, so differing metadata never affects regression checks.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	Notes      string   `json:"notes,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// gitCommit returns the short head commit, best-effort: benchmarks may
// run outside a checkout, so failures simply leave the field empty.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		runCompare(os.Args[2:])
		return
	}
	out := flag.String("o", "", "write JSON here instead of stdout")
	notes := flag.String("notes", "", "free-form note stored in the document header")
	flag.Parse()

	doc := Document{
		Notes:      *notes,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     gitCommit(),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		default:
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// parseLine parses one "BenchmarkX-8  100  12345 ns/op  67 B/op ..." line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: strings.TrimSuffix(fields[0], cpuSuffix(fields[0])), Iterations: iters}
	// The rest alternates value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// cpuSuffix returns the trailing "-N" GOMAXPROCS marker, if present.
func cpuSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

// runCompare implements `benchjson compare OLD NEW`: load both saved
// documents, match benchmarks by name, and flag regressions past the
// threshold in ns/op or allocs/op.
func runCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.20, "relative growth in ns/op or allocs/op that counts as a regression")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchjson compare [-threshold 0.20] OLD.json NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	oldDoc, err := loadDocument(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	newDoc, err := loadDocument(fs.Arg(1))
	if err != nil {
		fatal(err)
	}

	oldBy := make(map[string]Result, len(oldDoc.Benchmarks))
	for _, r := range oldDoc.Benchmarks {
		oldBy[r.Name] = r
	}
	regressions := 0
	matched := 0
	for _, nw := range newDoc.Benchmarks {
		old, ok := oldBy[nw.Name]
		if !ok {
			fmt.Printf("new      %-60s %12.0f ns/op (no baseline)\n", nw.Name, nw.NsPerOp)
			continue
		}
		delete(oldBy, nw.Name)
		matched++
		bad := false
		report := func(metric string, o, n float64) {
			if o <= 0 {
				return
			}
			growth := n/o - 1
			if growth > *threshold {
				bad = true
				fmt.Printf("WORSE    %-60s %s %12.0f -> %12.0f (%+.1f%%)\n",
					nw.Name, metric, o, n, growth*100)
			}
		}
		report("ns/op", old.NsPerOp, nw.NsPerOp)
		report("allocs/op", old.AllocsOp, nw.AllocsOp)
		if bad {
			regressions++
		} else {
			fmt.Printf("ok       %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
				nw.Name, old.NsPerOp, nw.NsPerOp, (nw.NsPerOp/old.NsPerOp-1)*100)
		}
	}
	for name := range oldBy {
		fmt.Printf("removed  %-60s (present only in %s)\n", name, fs.Arg(0))
	}
	fmt.Printf("compared %d benchmarks, %d regressions (threshold %+.0f%%)\n",
		matched, regressions, *threshold*100)
	if regressions > 0 {
		os.Exit(1)
	}
}

func loadDocument(path string) (Document, error) {
	var doc Document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
