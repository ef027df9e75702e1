package main

import (
	"os"
	"path/filepath"
	"testing"

	"eabrowse/internal/trace"
)

func TestSmallTrace(t *testing.T) {
	if err := run([]string{"-users", "2", "-hours", "0.5"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-users", "0"}); err == nil {
		t.Fatal("zero users accepted")
	}
	if err := run([]string{"-what"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	for _, h := range []string{"NaN", "Inf", "-Inf"} {
		if err := run([]string{"-users", "2", "-hours", h}); err == nil {
			t.Fatalf("-hours %s accepted", h)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := run([]string{"-users", "2", "-hours", "0.5", "-csv", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV written")
	}
}

func TestJSONOutputRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-users", "2", "-hours", "0.5", "-json", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	visits, err := trace.ReadVisits(f)
	if err != nil {
		t.Fatalf("ReadVisits: %v", err)
	}
	if len(visits) == 0 {
		t.Fatal("no visits round-tripped")
	}
}
