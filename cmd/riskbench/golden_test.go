package main

import (
	"bytes"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden riskbench panels under testdata/golden")

// goldenOptions is a tiny but non-degenerate riskbench invocation: one
// scenario, two policies, one integrated panel — small enough to pin every
// output byte as testdata.
func goldenOptions(faultMode, out string) options {
	return options{
		model:     "commodity",
		set:       "A",
		analysis:  "integrated4",
		jobs:      60,
		nodes:     128,
		workers:   1,
		reps:      1,
		scenario:  "workload",
		policies:  "FCFS-BF,Libra",
		faults:    faultMode,
		faultSeed: 7,
		outDir:    out,
		stdout:    io.Discard,
		stderr:    io.Discard,
	}
}

// listFiles returns every regular file under root keyed by slash-separated
// relative path, excluding the journal (it records wall-clock times).
func listFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "journal.jsonl" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGoldenPanels is the end-to-end determinism pin: the full riskbench
// pipeline — trace synthesis, QoS attachment, simulation with and without
// fault injection (plain and federated), the replication reduce, risk
// analysis, and every emitted panel format — must reproduce the committed
// bytes exactly. Regenerate deliberately with
//
//	go test ./cmd/riskbench -run TestGoldenPanels -update
func TestGoldenPanels(t *testing.T) {
	for _, mode := range []string{"none", "high", "federated", "bid"} {
		t.Run(mode, func(t *testing.T) {
			out := t.TempDir()
			opts := goldenOptions(mode, out)
			if mode == "federated" {
				// The federated cell: the same tiny grid routed through the
				// heterogeneous 4-cluster preset under high faults.
				opts = goldenOptions("high", out)
				opts.federation = "hetero4"
			}
			if mode == "bid" {
				// The bid-based model under Set B's inaccurate estimates and
				// high faults, averaged over two replications: pins the
				// bid-only policies and the order-fixed replication reduce.
				opts = goldenOptions("high", out)
				opts.model = "bid"
				opts.set = "B"
				opts.reps = 2
				opts.policies = "FCFS-BF,LibraRiskD,FirstReward"
			}
			if err := run(opts); err != nil {
				t.Fatal(err)
			}
			got := listFiles(t, out)
			if len(got) == 0 {
				t.Fatal("riskbench wrote no files")
			}
			goldenDir := filepath.Join("testdata", "golden", mode)
			if *update {
				if err := os.RemoveAll(goldenDir); err != nil {
					t.Fatal(err)
				}
				rels := make([]string, 0, len(got))
				for rel := range got {
					rels = append(rels, rel)
				}
				sort.Strings(rels)
				for _, rel := range rels {
					path := filepath.Join(goldenDir, filepath.FromSlash(rel))
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got[rel], 0o644); err != nil {
						t.Fatal(err)
					}
				}
				t.Logf("rewrote %d golden files under %s", len(got), goldenDir)
				return
			}
			want := listFiles(t, goldenDir)
			for rel := range want {
				if _, ok := got[rel]; !ok {
					t.Errorf("golden file %s not produced", rel)
				}
			}
			for rel, data := range got {
				wantData, ok := want[rel]
				if !ok {
					t.Errorf("unexpected output file %s (run with -update if intended)", rel)
					continue
				}
				if !bytes.Equal(data, wantData) {
					t.Errorf("%s differs from golden copy (run with -update if intended)", rel)
				}
			}
		})
	}
}

// The fault axis must actually move the numbers: the none and high golden
// trees may not coincide on the raw per-cell reports.
func TestGoldenFaultModesDiffer(t *testing.T) {
	read := func(mode string) []byte {
		path := filepath.Join("testdata", "golden", mode, "commodity", "set-a", "results.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Skipf("golden tree missing (%v); run go test ./cmd/riskbench -run TestGoldenPanels -update", err)
		}
		return data
	}
	if bytes.Equal(read("none"), read("high")) {
		t.Fatal("fault injection left results.json unchanged")
	}
}
