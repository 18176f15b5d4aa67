package stats

import (
	"math"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := Percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 1000)
	got, err := Percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if m, err := Percentile([]float64{5, 1, 3}, 50); err != nil || m != 3 {
		t.Fatalf("median of 3 samples = %v, %v; want 3", m, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.25, 7.0, 1.0}, 0.75, 5.05},
		{[]float64{4, 1}, 0.25, 4.75},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
