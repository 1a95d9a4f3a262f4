package datastall_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	"datastall"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden suite files from current output")

// TestSuiteGolden is the simulator's regression gate: the full
// experiment suite (default scales, seed 1, timings excluded) must be
// byte-identical to the committed golden report and paper tables. Any drift
// — a changed metric, a reordered row, a reworded note — fails here and must
// be a deliberate `go test -run TestSuiteGolden -update .` commit, never an
// accident of a refactor. This is what "runsuite output stays byte-identical"
// means mechanically: every refactor and perf PR rides behind this file.
func TestSuiteGolden(t *testing.T) {
	rep, err := datastall.RunSuite(context.Background(), datastall.SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed > 0 || rep.Skipped > 0 {
		t.Fatalf("suite not clean: %d failed, %d skipped", rep.Failed, rep.Skipped)
	}

	gotJSON, err := rep.JSON(false) // timings excluded: reproducible bytes
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')

	var tables bytes.Buffer
	for _, e := range rep.Experiments {
		fmt.Fprintf(&tables, "%s\n", e)
	}

	if *updateGolden {
		if err := os.WriteFile("testdata/golden-suite.json", gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden-tables.txt", tables.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden files rewritten")
		return
	}

	compareGolden(t, "testdata/golden-suite.json", gotJSON)
	compareGolden(t, "testdata/golden-tables.txt", tables.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestSuiteGolden -update .`): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report the first differing line, not a 40 KB dump.
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s drifted at line %d:\n  got:  %s\n  want: %s\n(rerun with -update if intentional)",
				path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s drifted: got %d lines, want %d (rerun with -update if intentional)", path, len(gl), len(wl))
}
