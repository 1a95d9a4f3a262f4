package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"datastall/internal/memo"
	"datastall/internal/trainer"
)

// TestSpecRoundTrip is the speccheck gate: every registry experiment that is
// expressible as a Spec must survive JSON marshal -> unmarshal -> run with
// byte-identical output (table text, values, notes) to the direct registry
// run. This is what makes `runsuite -spec` trustworthy: a spec on disk is
// the experiment, not an approximation of it.
func TestSpecRoundTrip(t *testing.T) {
	specs := Specs()
	if len(specs) == 0 {
		t.Fatal("no registry experiments are registered as Specs")
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			direct, err := Run(context.Background(), sp.Name, Options{})
			if err != nil {
				t.Fatal(err)
			}

			data, err := json.MarshalIndent(sp, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSpec(data)
			if err != nil {
				t.Fatalf("round-tripped spec does not load: %v\n%s", err, data)
			}
			e, err := ByID(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			viaJSON, err := RunSpec(context.Background(), loaded, Options{}.withDefaults(e.DefaultScale))
			if err != nil {
				t.Fatal(err)
			}

			if got, want := viaJSON.Table.String(), direct.Table.String(); got != want {
				t.Fatalf("table drifted after JSON round-trip:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if !reflect.DeepEqual(viaJSON.Values, direct.Values) {
				t.Fatalf("values drifted after JSON round-trip:\ngot:  %v\nwant: %v", viaJSON.Values, direct.Values)
			}
			if viaJSON.Notes != direct.Notes {
				t.Fatalf("notes drifted: %q vs %q", viaJSON.Notes, direct.Notes)
			}
		})
	}
}

// TestSpecBackedExperiments holds every spec-backed registry experiment to
// what its Spec promises beyond the table: Run captures one case per grid
// cell under the experiment's ID, and a second Run through the same memo
// cache simulates nothing and reproduces the table, values and notes.
func TestSpecBackedExperiments(t *testing.T) {
	var ids []string
	for _, sp := range Specs() {
		ids = append(ids, sp.Name)
	}
	want := []string{"ablation-cache", "ablation-prefetch", "ablation-remote",
		"fig18", "fig21", "fig5", "fig6", "fig9a", "fig9b"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("Specs() = %v, want %v", ids, want)
	}
	ctx := context.Background()
	for _, sp := range Specs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			e, err := ByID(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := EnumerateCases(sp, Options{}.withDefaults(e.DefaultScale))
			if err != nil {
				t.Fatal(err)
			}
			cache, err := memo.Open(memo.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Run(ctx, sp.Name, Options{Memo: cache})
			if err != nil {
				t.Fatal(err)
			}
			if len(cold.Cases) != len(cells) {
				t.Fatalf("captured %d cases for %d grid cells", len(cold.Cases), len(cells))
			}
			for i, c := range cold.Cases {
				if c.Spec != sp.Name || c.Row != cells[i].Row || c.Case != cells[i].Case {
					t.Errorf("case %d is %s/%s/%s, want %s/%s/%s",
						i, c.Spec, c.Row, c.Case, sp.Name, cells[i].Row, cells[i].Case)
				}
			}
			misses := cache.Stats().Misses
			if misses == 0 {
				t.Fatal("cold run simulated nothing through the memo cache")
			}
			warm, err := Run(ctx, sp.Name, Options{Memo: cache})
			if err != nil {
				t.Fatal(err)
			}
			if n := cache.Stats().Misses - misses; n != 0 {
				t.Errorf("warm run simulated %d cells, want 0", n)
			}
			if got, want := warm.Table.String(), cold.Table.String(); got != want {
				t.Errorf("warm table differs:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if !reflect.DeepEqual(warm.Values, cold.Values) {
				t.Errorf("warm values differ:\ngot:  %v\nwant: %v", warm.Values, cold.Values)
			}
			if warm.Notes != cold.Notes {
				t.Errorf("warm notes %q, want %q", warm.Notes, cold.Notes)
			}
		})
	}
}

// TestSpecNameMustMatchID: an experiment whose Spec carries another name
// would run and capture its cases under the wrong ID, so register refuses it.
func TestSpecNameMustMatchID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("register accepted a Spec whose Name differs from the experiment ID")
		}
		if _, ok := registry["spec-mismatch"]; ok {
			t.Fatal("the rejected experiment was registered")
		}
	}()
	register(&Experiment{ID: "spec-mismatch", Spec: &Spec{Name: "fig5"}})
}

// TestSpecExampleFile runs the committed example scenario — a sweep that
// exists nowhere in compiled code — end to end.
func TestSpecExampleFile(t *testing.T) {
	data, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := LoadSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if SpecFor(sp.Name) != nil {
		t.Fatalf("example spec %q collides with a registry experiment", sp.Name)
	}
	r, err := RunSpec(context.Background(), sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(r.Table.Rows); rows != 5 {
		t.Fatalf("cache sweep produced %d rows, want 5", rows)
	}
	// The sweep's physics: CoorDL must beat the page-cache baseline at
	// every cache size (speedup column > 1).
	for frac, sp := range r.Values {
		if sp <= 1 {
			t.Errorf("speedup at %s is %.3f, want > 1", frac, sp)
		}
	}
	if len(r.Values) != 5 {
		t.Fatalf("got %d speedup values, want 5: %v", len(r.Values), r.Values)
	}
}

// TestSpecDeterministic: the same spec twice gives byte-identical tables.
func TestSpecDeterministic(t *testing.T) {
	o := Options{}.withDefaults(0.01)
	a, err := RunSpec(context.Background(), SpecFor("fig5"), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(context.Background(), SpecFor("fig5"), o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.String() != b.Table.String() {
		t.Fatal("spec runs are not deterministic")
	}
}

// TestLoadSpecRejectsGarbage: typos and structural mistakes fail loudly at
// load time, not as silent zero-valued sweeps at run time.
func TestLoadSpecRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"name":"x","row_header":["m"],"base":{"modell":"resnet18"},
			"rows":{"param":"loader","values":["coordl"]},
			"columns":[{"label":"s","metric":"epoch_s","of":"coordl"}]}`,
		"no columns": `{"name":"x","base":{"model":"resnet18"},
			"rows":{"param":"loader","values":["coordl"]},"columns":[]}`,
		"empty axis": `{"name":"x","base":{"model":"resnet18"},"rows":{},
			"columns":[{"label":"s","metric":"epoch_s"}]}`,
		"unknown metric": `{"name":"x","base":{"model":"resnet18"},
			"rows":{"param":"loader","values":["coordl"]},
			"columns":[{"label":"s","metric":"nope","of":"coordl"}]}`,
		"column references missing sweep case": `{"name":"x","base":{"model":"resnet18"},
			"rows":{"param":"cache_fraction","values":[0.5]},
			"sweep":{"param":"loader","values":["coordl"]},
			"columns":[{"label":"s","metric":"epoch_s","of":"dali-shuffle"}]}`,
		"no name": `{"base":{"model":"resnet18"},
			"rows":{"param":"loader","values":["coordl"]},
			"columns":[{"label":"s","metric":"epoch_s","of":"coordl"}]}`,
		// A zero axis value would be swallowed by overlay's zero-means-
		// default rule and the row would silently run the default config.
		"zero axis value": `{"name":"x","base":{"model":"resnet18"},
			"rows":{"param":"cache_fraction","values":[0,0.35]},
			"columns":[{"label":"s","metric":"epoch_s"}]}`,
		"false axis value": `{"name":"x","base":{"model":"resnet18"},
			"rows":{"param":"disable_remote_fetch","values":[false,true]},
			"columns":[{"label":"s","metric":"epoch_s"}]}`,
		// A param with JSON metacharacters must fail as one unknown key,
		// not inject extra fields into the overlay patch.
		"json-injecting param": `{"name":"x","base":{"model":"resnet18"},
			"rows":{"param":"loader\":\"coordl\",\"model","values":["alexnet"]},
			"columns":[{"label":"s","metric":"epoch_s"}]}`,
		// Cases without cells can only derive model/dataset/server headers.
		"underivable row header": `{"name":"x","base":{"model":"resnet18"},
			"row_header":["cache frac"],
			"rows":{"cases":[{"label":"a","set":{"cache_fraction":0.5}}]},
			"columns":[{"label":"s","metric":"epoch_s"}]}`,
		// Cell count must match row_header or table rendering breaks.
		"too many cells": `{"name":"x","base":{"model":"resnet18"},
			"row_header":["model"],
			"rows":{"cases":[{"cells":["a","b"],"set":{"cache_fraction":0.5}}]},
			"columns":[{"label":"s","metric":"epoch_s"}]}`,
		// Duplicate labels silently overwrite each other's results.
		"duplicate sweep labels": `{"name":"x","base":{"model":"resnet18","scale":0.01},
			"rows":{"cases":[{"cells":["r"],"set":{"cache_fraction":0.5}}]},
			"row_header":["model"],
			"sweep":{"param":"loader","values":["coordl","coordl"]},
			"columns":[{"label":"s","metric":"epoch_s","of":"coordl"}]}`,
		"duplicate row labels": `{"name":"x","base":{"model":"resnet18","scale":0.01},
			"row_header":["model"],
			"rows":{"cases":[{"cells":["r"],"set":{"cache_fraction":0.5}},
				{"cells":["r"],"set":{"cache_fraction":0.8}}]},
			"columns":[{"label":"s","metric":"epoch_s"}]}`,
	}
	for name, src := range cases {
		if _, err := LoadSpec([]byte(src)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// TestSpecUnknownNamesFailAtRun: resolvable-looking specs with unknown
// model/server/loader names error out of build, not panic.
func TestSpecUnknownNamesFailAtRun(t *testing.T) {
	for name, base := range map[string]JobSpec{
		"model":      {Model: "not-a-model"},
		"dataset":    {Model: "resnet18", Dataset: "not-a-dataset"},
		"server":     {Model: "resnet18", Server: "not-a-server"},
		"loader":     {Model: "resnet18", Loader: "not-a-loader"},
		"framework":  {Model: "resnet18", Framework: "not-a-framework"},
		"gpu_prep":   {Model: "resnet18", GPUPrep: "sideways"},
		"fetch_mode": {Model: "resnet18", FetchMode: "psychic"},
		"no model":   {},
	} {
		sp := &Spec{
			Name: "bad-" + name, Base: base, RowHeader: []string{"model"},
			Rows:    Axis{Cases: []Case{{Label: "x", Set: JobSpec{}}}},
			Columns: []Column{{Label: "s", Metric: "epoch_s"}},
		}
		if _, err := RunSpec(context.Background(), sp, Options{Scale: 0.01}); err == nil {
			t.Errorf("%s: ran without error", name)
		}
	}
}

// TestLoadSpecRejectsBackend: there is one simulator, so the job schema
// has no "backend" field. A spec that sets one — in its base, in a case
// patch, or as a grid axis — fails to load with an error naming the field,
// for the value the field once defaulted to as much as for the deleted one.
func TestLoadSpecRejectsBackend(t *testing.T) {
	const tail = `"row_header":["model"],"columns":[{"label":"s","metric":"epoch_s"}]}`
	for _, backend := range []string{"concurrent", "analytic"} {
		for name, src := range map[string]string{
			"base": `{"name":"b","base":{"model":"resnet18","backend":"` + backend + `"},
				"rows":{"cases":[{"label":"r","set":{}}]},` + tail,
			"case": `{"name":"b","base":{"model":"resnet18"},
				"rows":{"cases":[{"label":"r","set":{"backend":"` + backend + `"}}]},` + tail,
			"axis": `{"name":"b","base":{"model":"resnet18"},
				"rows":{"param":"backend","values":["` + backend + `"]},` + tail,
		} {
			_, err := LoadSpec([]byte(src))
			if err == nil || !strings.Contains(err.Error(), "backend") {
				t.Errorf("%s/%s: LoadSpec error %v, want one naming backend", backend, name, err)
			}
		}
	}
}

// TestSpecRequiresScale: a user spec with no scale anywhere (neither the
// spec's base nor the Options) refuses to run rather than silently
// launching a paper-size simulation.
func TestSpecRequiresScale(t *testing.T) {
	sp := &Spec{
		Name: "no-scale", Base: JobSpec{Model: "resnet18"},
		RowHeader: []string{"model"},
		Rows:      Axis{Cases: []Case{{Label: "x", Set: JobSpec{}}}},
		Columns:   []Column{{Label: "s", Metric: "epoch_s"}},
	}
	if _, err := RunSpec(context.Background(), sp, Options{}); err == nil {
		t.Fatal("scale-less spec ran without error")
	}
	// The same spec with a scale supplied either way runs fine.
	if _, err := RunSpec(context.Background(), sp, Options{Scale: 0.005}); err != nil {
		t.Fatalf("options scale rejected: %v", err)
	}
	sp.Base.Scale = 0.005
	if _, err := RunSpec(context.Background(), sp, Options{}); err != nil {
		t.Fatalf("base scale rejected: %v", err)
	}
}

// TestSpecRejectsNegativeBase: a negative knob in a spec's base fails the
// run with the trainer's typed *FieldError on the field it resolves to,
// instead of running with a silently wrong configuration.
func TestSpecRejectsNegativeBase(t *testing.T) {
	for set, field := range map[string]string{
		`"threads_per_gpu": -2`:  "ThreadsPerGPU",
		`"cache_budget_gib": -5`: "CacheBytes",
	} {
		sp, err := LoadSpec([]byte(`{"name": "neg", "base": {"model": "resnet18", "scale": 0.01, ` + set + `},
			"rows": {"cases": [{"label": "r", "set": {}}]},
			"row_header": ["model"], "columns": [{"label": "s", "metric": "epoch_s"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunSpec(context.Background(), sp, Options{})
		var fe *trainer.FieldError
		if !errors.As(err, &fe) || fe.Field != field {
			t.Errorf("%s: RunSpec error %v, want a *trainer.FieldError on %s", set, err, field)
		}
	}
}

// TestSpecRejectsScaleOutOfRange: a scale outside (0, 1] is an error naming
// scale, from the job's resolver, not a panic in the dataset catalog.
func TestSpecRejectsScaleOutOfRange(t *testing.T) {
	for _, scale := range []float64{1.5, -0.01} {
		if _, err := (JobSpec{Model: "resnet18", Scale: scale}).Build(Options{}); err == nil ||
			!strings.Contains(err.Error(), "scale") {
			t.Errorf("Build at scale %v: error %v, want one naming scale", scale, err)
		}
		sp := &Spec{
			Name: "bad-scale", Base: JobSpec{Model: "resnet18", Scale: scale},
			RowHeader: []string{"model"},
			Rows:      Axis{Cases: []Case{{Label: "x", Set: JobSpec{}}}},
			Columns:   []Column{{Label: "s", Metric: "epoch_s"}},
		}
		if _, err := RunSpec(context.Background(), sp, Options{}); err == nil ||
			!strings.Contains(err.Error(), "scale") {
			t.Errorf("RunSpec at scale %v: error %v, want one naming scale", scale, err)
		}
	}
}

// TestSpecJSONStable: marshalling a registry spec twice is byte-stable
// (guards against map-ordered fields sneaking into the schema).
func TestSpecJSONStable(t *testing.T) {
	for _, sp := range Specs() {
		a, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(sp)
		if !bytes.Equal(a, b) {
			t.Fatalf("spec %s marshals unstably", sp.Name)
		}
	}
}
