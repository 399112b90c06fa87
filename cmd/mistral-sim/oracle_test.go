package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/oracle.json from the current code")

// oracleArgsEnv, when set, makes the test binary run mistral-sim's main
// with the newline-separated arguments it holds instead of the tests, so
// the oracle drives the real command without building it.
const oracleArgsEnv = "MISTRAL_SIM_ORACLE_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(oracleArgsEnv); ok {
		os.Args = append([]string{"mistral-sim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// oracleCell is one recipe of the decision oracle and the SHA-256 digests
// of what it emits: stdout (the -csv window table) and the provenance
// JSONL with per-step records.
type oracleCell struct {
	Strategy   string  `json:"strategy"`
	FaultRate  float64 `json:"fault_rate"`
	ExecPolicy string  `json:"exec_policy"`
	Stdout     string  `json:"stdout_sha256"`
	Provenance string  `json:"provenance_sha256"`
}

func (c oracleCell) name() string {
	return fmt.Sprintf("%s/fault=%g/%s", c.Strategy, c.FaultRate, c.ExecPolicy)
}

// oracleMatrix is {mistral, pwr-cost} × fault rate {0, 0.3} × exec policy
// {fail-forward, rollback}, each a guarded 1-hour, 2-app serial replay.
func oracleMatrix() []oracleCell {
	var cells []oracleCell
	for _, s := range []string{"mistral", "pwr-cost"} {
		for _, rate := range []float64{0, 0.3} {
			for _, ep := range []string{"fail-forward", "rollback"} {
				cells = append(cells, oracleCell{Strategy: s, FaultRate: rate, ExecPolicy: ep})
			}
		}
	}
	return cells
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum)
}

// runOracleCell runs mistral-sim on the cell's recipe at the given
// workers setting in a child process and fills in its digests.
func runOracleCell(t *testing.T, c oracleCell, workers int) oracleCell {
	t.Helper()
	prov := filepath.Join(t.TempDir(), "prov.jsonl")
	args := []string{
		"-apps", "2", "-workers", fmt.Sprint(workers), "-duration", "1h", "-guard", "-csv",
		"-strategy", c.Strategy,
		"-fault-rate", fmt.Sprint(c.FaultRate),
		"-exec-policy", c.ExecPolicy,
		"-provenance", prov, "-step-provenance",
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), oracleArgsEnv+"="+strings.Join(args, "\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: mistral-sim: %v\n%s", c.name(), err, stderr.String())
	}
	raw, err := os.ReadFile(prov)
	if err != nil {
		t.Fatal(err)
	}
	c.Stdout, c.Provenance = sha(stdout.Bytes()), sha(raw)
	return c
}

// TestDecisionOracle pins mistral-sim's window table and provenance
// stream, byte for byte, across strategies, fault rates and execution
// policies. Each mistral cell is replayed again at workers 2 — parallel
// child staging, Perf-Pwr sweep arms and the 1st-level fan-out — and must
// reproduce the serial digests. A change that moves a digest changes
// behaviour: regenerate with -update only when that is intended, and say
// why.
func TestDecisionOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 12 recipes")
	}
	golden := filepath.Join("testdata", "oracle.json")
	var got []oracleCell
	for _, c := range oracleMatrix() {
		got = append(got, runOracleCell(t, c, 1))
	}
	// The parallel replays are held to the serial digests: the committed
	// ones, or the fresh ones when regenerating.
	serial := got
	if !*update {
		serial = readOracle(t, golden)
	}
	for i, c := range oracleMatrix() {
		if c.Strategy != "mistral" || i >= len(serial) {
			continue
		}
		if par := runOracleCell(t, c, 2); par != serial[i] {
			t.Errorf("%s/workers=2: digests differ from workers 1:\n got %+v\nwant %+v", c.name(), par, serial[i])
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := serial
	if len(want) != len(got) {
		t.Fatalf("oracle has %d cells, matrix has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: digests moved:\n got %+v\nwant %+v", got[i].name(), got[i], want[i])
		}
	}
}

// readOracle loads the committed oracle cells.
func readOracle(t *testing.T, golden string) []oracleCell {
	t.Helper()
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []oracleCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}
