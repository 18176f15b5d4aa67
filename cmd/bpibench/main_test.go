package main

import (
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
