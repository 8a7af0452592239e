package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string // nil: the spec must be refused
	}{
		{"all", []string{"all"}},
		{"none", []string{"none"}},
		{"fig4", []string{"fig4"}},
		{"fig4,table4", []string{"fig4", "table4"}},
		{" fig4 , replan ", []string{"fig4", "replan"}},
		{"table1,table2,table3,table4,fig3,fig5,fig6,fig7,alpha,ablations,cxl",
			[]string{"table1", "table2", "table3", "table4", "fig3", "fig5", "fig6", "fig7", "alpha", "ablations", "cxl"}},
		{"junk", nil},
		{"fig44", nil},
		{"tab4", nil},
		{"Fig4", nil},
		{"fig4,junk", nil},
		{"fig4,", nil},
		{"", nil},
	} {
		got, err := parseExperiments(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseExperiments(%q) = %v, want an error", tc.spec, got)
			} else if !strings.Contains(err.Error(), "table1, table2") || !strings.Contains(err.Error(), "replan, all, none") {
				t.Errorf("parseExperiments(%q) error %q does not list the valid names", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExperiments(%q): %v", tc.spec, err)
			continue
		}
		want := map[string]bool{}
		for _, e := range tc.want {
			want[e] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseExperiments(%q) = %v, want %v", tc.spec, got, want)
		}
	}
}
