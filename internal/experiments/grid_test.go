package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"datastall/internal/trainer"
)

// gridTestSpec is a 2-row x 2-case grid at a tiny scale: big enough to have
// real row/sweep structure, small enough to simulate in milliseconds.
func gridTestSpec(t *testing.T) *Spec {
	t.Helper()
	sp, err := LoadSpec([]byte(`{
		"name": "gridtest",
		"title": "grid split fidelity",
		"row_header": ["cache"],
		"base": {"model": "resnet18", "dataset": "imagenet-1k", "scale": 0.005, "epochs": 2, "seed": 1},
		"rows": {"param": "cache_fraction", "values": [0.25, 0.5]},
		"sweep": {"param": "loader", "values": ["dali-shuffle", "coordl"]},
		"columns": [
			{"label": "dali s", "metric": "epoch_s", "of": "dali-shuffle", "key": "{row}/dali"},
			{"label": "speedup", "metric": "epoch_s", "of": "dali-shuffle", "over": "coordl"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestGridSplitMatchesRunSpec is the scatter/gather contract: running the
// enumerated cells out of order (here: reversed) and assembling by Index
// yields a Report byte-identical to the single-node RunSpec loop.
func TestGridSplitMatchesRunSpec(t *testing.T) {
	sp := gridTestSpec(t)
	o := Options{}
	direct, err := RunSpec(context.Background(), sp, o)
	if err != nil {
		t.Fatal(err)
	}

	cells, err := EnumerateCases(sp, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("enumerated %d cells, want 4", len(cells))
	}
	for i, c := range cells {
		if c.Index != i || c.Total != 4 {
			t.Fatalf("cell %d: Index=%d Total=%d", i, c.Index, c.Total)
		}
	}

	// Execute in reverse order, and round-trip each cell's JobSpec through
	// JSON first — exactly what a coordinator shipping cells to remote
	// workers does.
	results := make([]*trainer.Result, len(cells))
	for i := len(cells) - 1; i >= 0; i-- {
		b, err := json.Marshal(cells[i].Job)
		if err != nil {
			t.Fatal(err)
		}
		var js JobSpec
		if err := json.Unmarshal(b, &js); err != nil {
			t.Fatal(err)
		}
		cfg, err := js.Build(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := trainer.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[cells[i].Index] = res
	}
	assembled, err := AssembleReport(sp, o, results)
	if err != nil {
		t.Fatal(err)
	}

	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	assembledJSON, err := json.Marshal(assembled)
	if err != nil {
		t.Fatal(err)
	}
	if string(directJSON) != string(assembledJSON) {
		t.Fatalf("assembled report differs from RunSpec:\ndirect:    %s\nassembled: %s", directJSON, assembledJSON)
	}
	if direct.Table.String() != assembled.Table.String() {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", direct.Table.String(), assembled.Table.String())
	}
	if len(assembled.Cases) != 4 {
		t.Fatalf("assembled %d cases, want 4", len(assembled.Cases))
	}
}

// TestAssembleReportValidation: result slices that cannot correspond to the
// grid are rejected instead of silently producing a wrong table.
func TestAssembleReportValidation(t *testing.T) {
	sp := gridTestSpec(t)
	if _, err := AssembleReport(sp, Options{}, make([]*trainer.Result, 3)); err == nil {
		t.Fatal("wrong result count accepted")
	}
	if _, err := AssembleReport(sp, Options{}, make([]*trainer.Result, 4)); err == nil {
		t.Fatal("nil results accepted")
	}
}

// TestEnumerateCasesNoSweep: a spec without a sweep axis enumerates one
// cell per row with an empty Case label.
func TestEnumerateCasesNoSweep(t *testing.T) {
	sp, err := LoadSpec([]byte(`{
		"name": "nosweep",
		"row_header": ["model"],
		"base": {"scale": 0.005, "epochs": 1},
		"rows": {"param": "model", "values": ["resnet18", "alexnet"]},
		"columns": [{"label": "s", "metric": "epoch_s"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := EnumerateCases(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Case != "" {
			t.Fatalf("no-sweep cell has Case %q", c.Case)
		}
	}
	if cells[0].Row != "resnet18" || cells[1].Row != "alexnet" {
		t.Fatalf("row labels %q/%q", cells[0].Row, cells[1].Row)
	}
	if cells[0].Job.Model != "resnet18" || cells[1].Job.Model != "alexnet" {
		t.Fatalf("overlaid models %q/%q", cells[0].Job.Model, cells[1].Job.Model)
	}
}
