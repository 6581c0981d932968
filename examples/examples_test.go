// Execution smoke tests for the example programs: each one is built and run
// at a tiny problem size, so the examples are exercised — not just compiled —
// by `go test ./...` and CI.
package examples

import (
	"os/exec"
	"strings"
	"testing"
)

func runExample(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./" + dir}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("example %s failed: %v\n%s", dir, err, out)
	}
	return string(out)
}

func TestQuickstartExample(t *testing.T) {
	out := runExample(t, "quickstart", "-n", "16")
	for _, want := range []string{"MST:", "verified optimal", "cost:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSocialNetworkExample(t *testing.T) {
	out := runExample(t, "socialnetwork", "-n", "24")
	for _, want := range []string{"MIS:", "coordinators", "coloring:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHybridExample(t *testing.T) {
	out := runExample(t, "hybrid", "-side", "4")
	for _, want := range []string{"overlay BFS", "naive flooding"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestKMachineExample runs the example at its default 96-node size and pins
// the k-machine figures it prints for the smallest and largest machine counts.
func TestKMachineExample(t *testing.T) {
	out := runExample(t, "kmachine")
	for _, want := range []string{
		"k-machine simulation", "verified against Kruskal",
		"k= 2:   283866 machine rounds", "cross-traffic 717240 msgs",
		"k=16:    85728 machine rounds", "cross-traffic 1336950 msgs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
