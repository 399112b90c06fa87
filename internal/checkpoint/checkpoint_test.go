package checkpoint

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
)

// realCheckpoint builds a cheap 1-app environment, steps it two windows
// and returns its checkpoint as written to disk.
func realCheckpoint(t testing.TB) []byte {
	t.Helper()
	env, err := experiments.Build(experiments.Recipe{
		Strategy: "perf-pwr",
		Workers:  1,
		Lab:      experiments.LabOptions{NumApps: 1, Seed: 7},
	}, core.SearchOptions{}, experiments.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := env.Engine.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := env.Engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(New(env.Recipe, snap))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// withField decodes a checkpoint, sets one envelope field and re-encodes it.
func withField(t *testing.T, raw []byte, key string, val any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m[key] = val
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecipeRoundTrip(t *testing.T) {
	raw := realCheckpoint(t)
	ck, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Recipe().Validate(); err != nil {
		t.Fatalf("a written checkpoint's recipe does not validate: %v", err)
	}
	again, err := json.Marshal(New(ck.Recipe(), ck.Scenario))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Error("New(f.Recipe(), f.Scenario) does not reproduce the checkpoint bytes")
	}
}

// TestRecipeValidateRejectsEnvelopes checks that envelopes a decoder
// accepts are refused before any lab is built.
func TestRecipeValidateRejectsEnvelopes(t *testing.T) {
	raw := realCheckpoint(t)
	lab := func(apps, hosts int) map[string]any {
		return map[string]any{"NumApps": apps, "NumHosts": hosts, "Seed": 7}
	}
	cases := []struct {
		name, key string
		val       any
		want      string
	}{
		{"fault rate above 1", "fault_rate", 5, "fault rate"},
		{"negative fault rate", "fault_rate", -0.1, "fault rate"},
		{"40 apps", "lab", lab(40, 0), "apps"},
		{"no apps", "lab", lab(0, 0), "apps"},
		{"negative hosts", "lab", lab(1, -2), "hosts"},
		{"negative workers", "workers", -1, "workers"},
		{"unknown strategy", "strategy", "greedy", "unknown strategy"},
		{"unknown exec policy", "exec_policy", "retry-forever", "exec policy"},
	}
	for _, tc := range cases {
		ck, err := Decode(withField(t, raw, tc.key, tc.val))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		err = ck.Recipe().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzCheckpointRecipe feeds arbitrary bytes through the untrusted path
// every restore takes before building: Decode, then Recipe().Validate().
// Either may refuse the input; neither may panic.
func FuzzCheckpointRecipe(f *testing.F) {
	raw := realCheckpoint(f)
	f.Add(raw)
	f.Add([]byte(`{"schema":"` + Schema + `","strategy":"mistral","lab":{"NumApps":40},"fault_rate":5,"scenario":{}}`))
	f.Add([]byte(`{"schema":"` + Schema + `","fault_rate":1e999,"scenario":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err != nil {
			return
		}
		r := ck.Recipe()
		if r.Validate() == nil && (r.Lab.NumApps < 1 || r.Lab.NumApps > 4 || r.FaultRate < 0 || r.FaultRate > 1) {
			t.Fatalf("Validate accepted an out-of-range recipe: %+v", r)
		}
	})
}
