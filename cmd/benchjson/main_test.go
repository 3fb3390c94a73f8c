package main

import (
	"strings"
	"testing"
)

func doc(rows ...Result) Document { return Document{Benchmarks: rows} }

// TestCompareMissingRowFails: a baseline row absent from the new run is
// a failure named in the output, not a silent pass.
func TestCompareMissingRowFails(t *testing.T) {
	old := doc(
		Result{Name: "BenchmarkKept", NsPerOp: 100, AllocsOp: 2},
		Result{Name: "BenchmarkRetired", NsPerOp: 50},
	)
	nw := doc(Result{Name: "BenchmarkKept", NsPerOp: 105, AllocsOp: 2})
	var out strings.Builder
	if got := compare(&out, old, nw, "OLD.json", 0.20); got != 1 {
		t.Fatalf("compare = %d failures, want 1 for the missing row\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "MISSING  BenchmarkRetired") {
		t.Fatalf("output does not name the missing row:\n%s", out.String())
	}
}

// TestCompareRetiredRowPasses: once the retired row is deleted from the
// baseline too, the same new run compares clean, and a row only in the
// new run is reported without failing.
func TestCompareRetiredRowPasses(t *testing.T) {
	old := doc(Result{Name: "BenchmarkKept", NsPerOp: 100, AllocsOp: 2})
	nw := doc(
		Result{Name: "BenchmarkKept", NsPerOp: 105, AllocsOp: 2},
		Result{Name: "BenchmarkAdded", NsPerOp: 7},
	)
	var out strings.Builder
	if got := compare(&out, old, nw, "OLD.json", 0.20); got != 0 {
		t.Fatalf("compare = %d failures, want 0\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "new      BenchmarkAdded") {
		t.Fatalf("output does not report the new row:\n%s", out.String())
	}
}

// TestCompareRegressionFails: growth past the threshold in ns/op or
// allocs/op still fails.
func TestCompareRegressionFails(t *testing.T) {
	old := doc(Result{Name: "BenchmarkA", NsPerOp: 100, AllocsOp: 2})
	nw := doc(Result{Name: "BenchmarkA", NsPerOp: 100, AllocsOp: 3})
	var out strings.Builder
	if got := compare(&out, old, nw, "OLD.json", 0.20); got != 1 {
		t.Fatalf("compare = %d failures, want 1 for the allocs/op regression\n%s", got, out.String())
	}
}
