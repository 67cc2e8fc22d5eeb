package main

import (
	"strings"
	"testing"

	"kat/internal/exp"
)

func TestBenchList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, id := range exp.Order() {
		if !strings.Contains(out.String(), strings.ToUpper(id)+" ") {
			t.Errorf("list missing %s:\n%s", id, out.String())
		}
	}
}

func TestBenchSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "e5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "FZ2,FZ3,FZ4") {
		t.Errorf("E5 output wrong:\n%s", out.String())
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "e99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}
