package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datastall/internal/obs"
)

// TestSpecFileScaleOutOfRange: a spec whose scale lies outside (0, 1]
// makes runSpecFile fail with an error naming scale — a non-zero exit, not
// a panic from a worker goroutine.
func TestSpecFileScaleOutOfRange(t *testing.T) {
	dir := t.TempDir()
	for _, scale := range []string{"1.5", "-0.01"} {
		path := filepath.Join(dir, "spec.json")
		spec := `{"name": "b", "base": {"model": "resnet18", "scale": ` + scale + `},
			"rows": {"cases": [{"label": "r", "set": {}}]},
			"row_header": ["model"], "columns": [{"label": "s", "metric": "epoch_s"}]}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		stderr := captureStderr(t, func() {
			if code := runSpecFile(context.Background(), path, 0, 0, 0, nil, false, "", obs.Span{}); code == 0 {
				t.Errorf("scale %s: exit code 0, want non-zero", scale)
			}
		})
		if !strings.Contains(stderr, "scale") {
			t.Errorf("scale %s: stderr %q does not name scale", scale, stderr)
		}
	}
}

// captureStderr runs f with os.Stderr redirected to a file and returns
// what f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	file, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	saved := os.Stderr
	os.Stderr = file
	defer func() { os.Stderr = saved }()
	f()
	out, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
