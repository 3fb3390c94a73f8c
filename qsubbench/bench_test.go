package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"qsub/internal/relation"
)

// TestMain lets the test binary double as the root child process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(rootEnv) != "" {
		os.Exit(runRoot())
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at its smoke size, untraced and traced,
// and checks that the correctness gate ran and passed and that exactly
// the metrics BENCHMARK.json names are emitted, each with its unit.
func TestSmoke(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range bf.Workloads {
		if _, err := newSpec(w.Name, false); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			res, err := run(options{workload: w, seed: 7, seconds: 1, trace: trace, smoke: true, traceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			s := res.summary
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d problems=%v",
					w, trace, s.Correct, s.Attempted, s.Failed, res.info["problems"])
			}
			if res.info["answers_checked"].(int) == 0 {
				t.Errorf("%s trace=%d: no extracted answer was checked", w, trace)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := s.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s not emitted", w, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%d: metric %s in %q, BENCHMARK.json says %q", w, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: metric %s = %v", w, trace, name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, got.Value)
				}
			}
			for name := range s.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%d: metric %s is not in BENCHMARK.json", w, trace, name)
				}
			}
		}
	}
}

// fakeDeployment is a one-channel deployment with three known cycles of
// two messages each (sequence numbers 1..6) and one session.
func fakeDeployment(segs ...chanRun) *deployment {
	d := &deployment{}
	d.table.cs = make([]cycleInfo, 3)
	for k := range d.table.cs {
		d.table.cs[k].hi = []uint64{uint64(2 * (k + 1))}
		d.table.cs[k].msgs = []uint64{2}
	}
	d.table.known.Store(3)
	s := &session{id: 1, segs: segs}
	s.leaveAfter.Store(stays)
	d.sessions = []*session{s}
	return d
}

func TestAuditFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		segs []chanRun
		lost uint64
		ok   bool
	}{
		{"complete", []chanRun{{ch: 0, first: 1, last: 6, count: 6}}, 0, true},
		{"rebound mid-run", []chanRun{{ch: 0, first: 1, last: 2, count: 2}, {ch: 0, first: 3, last: 6, count: 4}}, 0, true},
		{"gap", []chanRun{{ch: 0, first: 1, last: 6, count: 5}}, 1, false},
		{"tail cut", []chanRun{{ch: 0, first: 1, last: 4, count: 4}}, 2, false},
		{"lost at rebind", []chanRun{{ch: 0, first: 1, last: 1, count: 1}, {ch: 0, first: 3, last: 6, count: 4}}, 1, false},
		{"duplicate", []chanRun{{ch: 0, first: 1, last: 6, count: 7, dups: 1}}, 0, false},
	} {
		g := fakeDeployment(tc.segs...).auditFrames(2)
		if g.ok() != tc.ok || g.lost != tc.lost || g.expected != 6 {
			t.Errorf("%s: ok=%v lost=%d expected=%d, want ok=%v lost=%d expected=6 (%v)",
				tc.name, g.ok(), g.lost, g.expected, tc.ok, tc.lost, g.problems)
		}
	}
}

func TestSameTuples(t *testing.T) {
	a := []relation.Tuple{{ID: 1}, {ID: 2}}
	if !sameTuples(a, a) || sameTuples(a, a[:1]) || sameTuples(a, []relation.Tuple{{ID: 1}, {ID: 3}}) {
		t.Fatal("sameTuples disagrees with tuple-id equality")
	}
}

// TestHistPrecision checks the histogram's quantiles stay within 1% of
// the exact sample quantile across nine decades.
func TestHistPrecision(t *testing.T) {
	var h hist
	var vs []float64
	for v := int64(1); v < 1e12; v = v*11/10 + 1 {
		h.add(v)
		vs = append(vs, float64(v))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		got, want := h.quantile(q), exactQuantile(vs, q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q=%v: got %v, exact %v", q, got, want)
		}
	}
}
