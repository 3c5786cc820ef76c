package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCountsRepeat runs the traced mode twice at one seed on each
// workload and requires the per-op obs counter deltas (plan.*,
// query.enumerate.*, deccache.*, qe.presburger.*) to be identical and
// every op to be answered correctly: the counts are exact, so a later
// change may rest a claim on them.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice per workload")
	}
	exe := filepath.Join(t.TempDir(), "finqbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			first := tracedCounts(t, exe, w)
			second := tracedCounts(t, exe, w)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("per-op counts differ between runs:\n first  %v\n second %v", first, second)
			}
		})
	}
}

// tracedCounts runs one short traced run and returns its per-op counts.
func tracedCounts(t *testing.T, exe, workload string) map[string]float64 {
	t.Helper()
	cmd := exec.Command(exe, "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	var counts map[string]float64
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "counts "); ok {
			if err := json.Unmarshal([]byte(rest), &counts); err != nil {
				t.Fatalf("counts line: %v", err)
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("result line %q: %v", last, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d, want every op correct", workload, res.Correct, res.Failed, res.Attempted)
	}
	if len(counts) == 0 {
		t.Fatalf("%s: no counts line in output", workload)
	}
	return counts
}
