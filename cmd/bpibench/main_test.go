package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSelectExperiments pins the -run filter: a substring of the id, in
// suite order, with an empty result for a filter that matches nothing (the
// caller turns that into exit status 2 instead of an empty "success").
func TestSelectExperiments(t *testing.T) {
	ids := func(exps []experiment) []string {
		var out []string
		for _, e := range exps {
			out = append(out, e.id)
		}
		return out
	}
	all := suite()
	for _, tc := range []struct {
		filter string
		want   []string
	}{
		{"", ids(all)},
		{"E7", []string{"E7"}},
		{"E1", []string{"E1", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}},
		{"ZZZ", nil},
		{"e7", nil},
	} {
		if got := ids(selectExperiments(all, tc.filter)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-run %q selected %v, want %v", tc.filter, got, tc.want)
		}
	}
}

// TestRunRejectsEmptySelection checks that a filter selecting no experiment
// exits 2 before running anything.
func TestRunRejectsEmptySelection(t *testing.T) {
	if got := run([]string{"-run", "ZZZ"}); got != 2 {
		t.Fatalf("bpibench -run ZZZ exited %d, want 2", got)
	}
}

// TestSuiteReproducesPaper runs every experiment through the command, as
// CI's bench step does, and fails on any status but PASS, so go test
// certifies the paper-vs-measured table. E13 itself fails unless each
// point of its broadcast-cost series is one bπ step against n π τ-steps;
// the test checks that the JSON report carries that series for n = 2, 4, 8.
func TestSuiteReproducesPaper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code := run([]string{"-json", path})
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchJSON
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 18 {
		t.Errorf("report holds %d experiments, want 18", len(rep.Experiments))
	}
	var series []costPoint
	for _, e := range rep.Experiments {
		if e.Status != "PASS" {
			t.Errorf("%s (%s): %s: %s", e.ID, e.Item, e.Status, e.Measured)
		}
		if e.ID == "E13" {
			series = e.Series
		}
	}
	if code != 0 {
		t.Errorf("bpibench exited %d, want 0", code)
	}
	var ns []int
	for _, pt := range series {
		ns = append(ns, pt.N)
	}
	if want := []int{2, 4, 8}; !reflect.DeepEqual(ns, want) {
		t.Errorf("E13 series covers n=%v, want %v", ns, want)
	}
}
