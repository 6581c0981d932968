package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncc/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the shipped-scenario goldens under testdata/")

// TestShippedScenarioFiles pins that every example under scenarios/ parses
// strictly, validates against the registries, and runs at its (small) size:
// one record per expanded run. Fault-free runs must verify; fault-injection
// demos must degrade instead of failing — every record carries a degradation
// report whose survivor verdict is clean (that is the robustness contract the
// demos exist to show). Each file's marshaled Records and canonical trace hash
// must also match its golden under testdata/, so any engine change that moves
// a single counter, fault decision, or k-machine figure fails here (rewrite
// the goldens with go test -run TestShippedScenarioFiles -update only for an
// intended behaviour change).
func TestShippedScenarioFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 9 {
		t.Fatalf("found only %d scenario files, want the 9 shipped examples", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			s, err := Load(path)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if _, err := s.Hash(); err != nil {
				t.Fatalf("Hash: %v", err)
			}
			expanded := s.Expand()
			if n := sizeOf(s); n > 256 {
				t.Fatalf("example graph size %d is not small; keep shipped scenarios fast", n)
			}
			faulty := len(s.Faults.specs()) > 0
			col := &obs.Collector{}
			var golden bytes.Buffer
			for i, c := range expanded {
				rec, err := RunTraced(c, col, RunOpts{})
				if err != nil {
					rec.Error = err.Error()
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				golden.Write(line)
				golden.WriteByte('\n')
				if rec.Error != "" {
					t.Errorf("run %d failed: %s", i, rec.Error)
					continue
				}
				if !faulty {
					if !rec.Verified {
						t.Errorf("run %d not verified: %s", i, rec.VerifyErr)
					}
					continue
				}
				if rec.Degradation == nil {
					t.Errorf("run %d: faulted record has no degradation report", i)
					continue
				}
				if !rec.Degradation.SurvivorsOK {
					t.Errorf("run %d: survivors inconsistent: %s", i, rec.Degradation.Detail)
				}
			}
			golden.WriteString("trace " + col.Hash() + "\n")
			checkGolden(t, strings.TrimSuffix(filepath.Base(path), ".json")+".golden", golden.Bytes())
		})
	}
}

// checkGolden compares got against testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// sizeOf estimates the largest node count a scenario can reach, covering the
// families the shipped examples use (n-, rows*cols-, and sweep-sized).
func sizeOf(s Scenario) int {
	n := 0
	if v, ok := s.Graph.Params["n"]; ok {
		n = int(v)
	}
	rows, hasRows := s.Graph.Params["rows"]
	cols, hasCols := s.Graph.Params["cols"]
	if hasRows && hasCols {
		n = max(n, int(rows)*int(cols))
	}
	if s.Sweep != nil {
		for _, v := range s.Sweep.N {
			n = max(n, v)
		}
	}
	if n == 0 {
		n = 64 // family default
	}
	return n
}
