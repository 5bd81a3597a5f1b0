package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

func TestValidRuns(t *testing.T) {
	res := &exp.Results{Runs: []exp.Run{{OK: true}, {OK: false}, {OK: true}}}
	if got := validRuns(res); got != 2 {
		t.Fatalf("validRuns = %d, want 2", got)
	}
	if validRuns(&exp.Results{}) != 0 {
		t.Fatal("empty results have no valid runs")
	}
}

// decodeOne decodes b as exactly one document.
func decodeOne(t *testing.T, b []byte) exp.JSONDocument {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var doc exp.JSONDocument
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("not a JSON document: %v\n%s", err, b)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("more than one document: %v", err)
	}
	return doc
}

// TestJSONStdoutIsOneDocument runs every source flag with -json - and
// decodes stdout as one document carrying that source's block; the
// human-readable text goes to stderr.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		has  func(exp.JSONDocument) bool
	}{
		{"sweep", []string{"-quick", "-reps", "1", "-hosts", "16", "-heuristics", "HMN", "-table", "2"},
			func(d exp.JSONDocument) bool { return len(d.Series) > 0 && len(d.Runs) > 0 }},
		{"churn", []string{"-churn", "-churn-ops", "20", "-hosts", "16"},
			func(d exp.JSONDocument) bool { return d.Churn != nil }},
		{"gap", []string{"-gap", "-gap-instances", "3"},
			func(d exp.JSONDocument) bool { return d.Gap != nil }},
		{"reservations_and_sweep", []string{"-reservations", "-quick", "-reps", "1", "-hosts", "16", "-heuristics", "HMN", "-table", "2"},
			func(d exp.JSONDocument) bool { return d.Reservations != nil && len(d.Series) > 0 }},
		{"federation", []string{"-federation"},
			func(d exp.JSONDocument) bool { return d.Federation != nil && len(d.Federation.Runs) == 3 }},
		{"table1", []string{"-table", "1"},
			func(d exp.JSONDocument) bool { return d.Hosts == 40 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-json", "-"), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.Bytes())
			}
			if !tc.has(decodeOne(t, stdout.Bytes())) {
				t.Fatalf("the document lacks the source's block:\n%s", stdout.Bytes())
			}
			if stderr.Len() == 0 {
				t.Fatal("no text on stderr")
			}
		})
	}
}

// TestJSONFileWithoutSweep: a run without a sweep still writes its
// document to the -json file.
func TestJSONFileWithoutSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "1", "-churn", "-churn-ops", "10", "-hosts", "16", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.Bytes())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if decodeOne(t, b).Churn == nil {
		t.Fatal("the file lacks the churn block")
	}
	if stdout.Len() == 0 {
		t.Fatal("no text on stdout")
	}
}
