package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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

// TestRunWritesProfilesOnError: an error after the profiles start is
// returned, not exited on, so both profiles are still written out.
func TestRunWritesProfilesOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "c.pb.gz"), filepath.Join(dir, "m.pb.gz")
	err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "-replan", "junk"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown replan mode "junk"`) {
		t.Fatalf("run = %v, want the -replan error", err)
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, want a non-empty gzip profile", filepath.Base(p), len(b))
		}
	}
}

// TestRunRefusesLoadWithCV: a -load artifact has no training corpus, so
// -cv is refused up front instead of being skipped without a word.
func TestRunRefusesLoadWithCV(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.artifact")
	err := run([]string{"-exp", "none", "-load", missing, "-cv"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-cv") {
		t.Fatalf("run(-load, -cv) = %v, want an error naming -cv", err)
	}
	if strings.Contains(err.Error(), missing) {
		t.Fatalf("run(-load, -cv) tried the restore first: %v", err)
	}
}

// TestRunCVWithoutEvaluation: -cv alone trains and prints the search.
func TestRunCVWithoutEvaluation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "none", "-quick", "-cv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "CV feature-subset search (3-fold):") || strings.Count(s, " events: mean R²=") != 4 {
		t.Fatalf("-exp none -quick -cv printed no four-row CV table:\n%s", s)
	}
}
