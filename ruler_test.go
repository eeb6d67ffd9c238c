package replobj_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets builds and vets the benchmark module
// (benchmark/, a module of its own, which `go test ./...` does not reach)
// against this tree. It compiles against internals of this module —
// DESIGN.md "Pinned by the ruler" lists them — so a change that breaks it
// fails here, in tier 1, and not only when the benchmark is next run.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go binary to build the benchmark module with: %v", err)
	}
	if out, err := exec.Command(goBin, "-C", "benchmark", "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
